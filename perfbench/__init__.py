"""Benchmark of the arn package: workloads, input generator, tracer and checks."""
