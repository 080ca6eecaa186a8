"""Layered end-to-end benchmark for the SLINFER simulator (see README.md)."""
