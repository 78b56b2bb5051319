#!/bin/sh
# Rewrites certificates.jsonl, the genuine-certificate corpus of
# mutation.rs: `rpr certify --classify` and `rpr certify` (every declared
# repair) over each workspace in workloads/ and in this directory.
# Run from the repository root after `cargo build --release -p rpr-cli`.
set -eu
rpr=target/release/rpr
out=crates/audit/tests/corpus/certificates.jsonl
: > "$out"
for ws in workloads/*.rpr crates/audit/tests/corpus/*.rpr; do
    "$rpr" certify "$ws" --classify >> "$out"
    # A candidate that trips the default work budget gets no certificate
    # (exit 4); the others still do.
    "$rpr" certify "$ws" --on-exceed partial >> "$out" 2>/dev/null || [ $? -eq 4 ]
done
