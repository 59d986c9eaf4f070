#!/bin/sh
# Build the benchmark and the layout_tool daemon from source, then run
# the benchmark with the arguments given, e.g.
#
#   sh perfbench/run.sh --workload compile-cold --seed 1 --seconds 10 --trace 0
#
# Run from the root of the repository.  Build output goes to stderr, so
# the last line of stdout is the benchmark's result.
set -e
dune build --root . --display quiet ./perfbench/main.exe ./bin/layout_tool.exe 1>&2
exec ./_build/default/perfbench/main.exe --layout-tool ./_build/default/bin/layout_tool.exe "$@"
