"""Benchmark of the tbshift CLI and API on seeded, generated inputs."""
