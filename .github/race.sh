#!/bin/sh
# race.sh [GO-TEST-FLAG...] PKG NAME...
#
# Runs the tests of PKG whose names start with one of NAME under the race
# detector, passing the leading GO-TEST-FLAGs (-v, -count=20) to go test.
# A -run pattern that matches nothing passes silently, so each NAME is
# first checked against `go test -list` and the script fails when one
# matches no test of PKG.
set -e
flags=
while [ "${1#-}" != "$1" ]; do
	flags="$flags $1"
	shift
done
pkg=$1
shift
for name in "$@"; do
	go test -list "^$name" "$pkg" | grep -q '^Test' \
		|| { echo "::error::-run name $name matches no test in $pkg"; exit 1; }
done
pattern=$(IFS='|'; echo "$*")
exec go test -race $flags -run "^($pattern)" "$pkg"
