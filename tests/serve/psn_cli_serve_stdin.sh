#!/bin/sh
# Stdin soak serve end to end: records a short run's trace with the real
# psn_cli, pipes it into `psn_cli serve` through stdin, and prints a pass
# line only if the eof event is clean, counts every trace line as a record,
# and rejected nothing.
#
# usage: psn_cli_serve_stdin.sh PSN_CLI WORK_PREFIX
cli=$1
trace=$2.jsonl
"$cli" run --doors 3 --seconds 10 --trace "$trace" >/dev/null || exit 1
n=$(wc -l < "$trace")
cat "$trace" | "$cli" serve --procs 4 > "$2.out"
cat "$2.out"
grep -q "\"event\":\"eof\",\"verdict\":\"clean\",\"records\":$n,.*\"rejected\":0," "$2.out" &&
  echo "serve stdin ok: $n records"
