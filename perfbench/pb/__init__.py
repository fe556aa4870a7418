"""End-to-end benchmark of the pipegen CLI, sweep jobs and serve loop."""
