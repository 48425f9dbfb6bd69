#!/bin/sh
# Regenerates the golden outputs that tests/driver/test_golden.cpp compares
# against byte for byte: for every corpus program and every examples/synl
# file, the JSON report, the --provenance JSON report and the `explain`
# text, as rendered by the given synat binary.
#
# Usage (from the repository root): tools/gen_golden.sh SYNAT [OUT_DIR]
#   SYNAT    path to a built synat CLI
#   OUT_DIR  defaults to tests/golden
#
# Goldens pin today's output. Regenerate them only for a change that is
# meant to alter reports, and say so in the change description.
set -u
synat=$1
out=${2:-tests/golden}
mkdir -p "$out"

emit() {  # emit TAG SPEC
  "$synat" batch --format json -o "$out/$1.json" "$2"
  "$synat" batch --format json --provenance -o "$out/$1.prov.json" "$2"
  "$synat" explain "$2" > "$out/$1.explain.txt"
  # synat exits 1 for a non-atomic procedure, which is a normal golden, so
  # exit codes are not checked; a missing report is.
  [ -s "$out/$1.json" ] || { echo "no report for $2" >&2; exit 1; }
}

for name in $("$synat" corpus | awk '{print $1}'); do
  emit "corpus_$name" "corpus:$name"
done
for f in examples/synl/*.synl; do
  emit "examples_$(basename "$f" .synl)" "$f"
done
