#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from source and
# runs it with every cache and temporary file kept under the checkout's
# .bench_build/ directory, so a run reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
# Nothing of the machine's go set-up decides the build: no env file, no
# workspace of a parent directory, no C compiler.
export GOENV=off GOWORK=off CGO_ENABLED=0
# No VCS stamping: a checkout that is not a repository may still sit below a
# directory with a .git the go command cannot read, and stamping then fails the build.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$build/bin/harness" .
exec "$build/bin/harness" -build-dir "$build" "$@"
