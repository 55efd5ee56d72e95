"""perfbench: the repository's benchmark (see perfbench/README.md).

Everything here measures ``repro`` from outside: spans and timers sit
around calls into each layer's public functions, counts come from the
program's public counters, and the CPU-time sampler lives in
:mod:`pb.trace`.
"""
