"""Seeded, oracle-checked benchmark for searchengine_ray (see README.md)."""
