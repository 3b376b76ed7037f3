"""Repository benchmark: four workloads, each layer timed from outside."""
