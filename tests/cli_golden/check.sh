#!/bin/sh
# Golden test for `emjoin_cli join`'s stdout and exit code.
#
#   check.sh EMJOIN_CLI GOLDEN_DIR [--update]
#
# Runs a fixed set of joins over the three CSVs in GOLDEN_DIR (a line
# query over a,b,c,d with 576 result rows) inside a scratch directory, so every
# path the CLI prints is relative, and diffs each run's stdout plus a
# trailing "exit N" line against GOLDEN_DIR/<case>.out. stderr is not
# compared. --update rewrites the golden files instead of diffing.
set -u
case $1 in /*) cli=$1 ;; *) cli=$PWD/$1 ;; esac
golden=$(cd "$2" && pwd) || exit 1
update=${3:-}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cp "$golden/r1.csv" "$golden/r2.csv" "$golden/r3.csv" "$work/"
cd "$work" || exit 1

status=0
run() {
  name=$1
  shift
  "$cli" join --memory 64 --block 4 "$@" \
    'a,b=r1.csv' 'b,c=r2.csv' 'c,d=r3.csv' > "$name.out" 2> /dev/null
  echo "exit $?" >> "$name.out"
  if [ "$update" = "--update" ]; then
    cp "$name.out" "$golden/$name.out"
  elif ! diff -u "$golden/$name.out" "$name.out"; then
    echo "check.sh: $name differs from its golden output" >&2
    status=1
  fi
}

run serial --stats --print
run sharded --shards=4 --workers=2 --stats --print
run yannakakis --algo yann
run recovered_faults --fault-seed=3 --fault-read=0.05 --fault-retries=8
# Killed mid-emission (219 of 576 rows out), then resumed from the
# manifest: the resumed run prints the full result set exactly once.
run killed --fault-kill-at=372 --resume=q.manifest --print
run resumed --resume=q.manifest --print
exit $status
