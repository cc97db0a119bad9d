"""Committed golden digests of the reference translator's output."""
