#!/bin/sh
# covergate.sh — statement-coverage floor for the accumulator-critical
# packages. The CPA engines and the attack engine with its fused kernels
# carry the byte-identity contract, so their test batteries must not
# quietly shrink: the floors sit just under the baseline measured when
# the gate landed (cpa 86.0%, core 87.4%) and the gate fails if either
# package drops below its floor.
#
# Usage: scripts/covergate.sh
set -eu

GO="${GO:-go}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

fail=0
check() {
	pkg="$1"
	floor="$2"
	out="$("$GO" test -cover "$pkg" | tail -n 1)"
	pct="$(printf '%s\n' "$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')"
	if [ -z "$pct" ]; then
		echo "covergate: FAIL $pkg: no coverage figure in: $out"
		fail=1
		return
	fi
	if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
		echo "covergate: FAIL $pkg: ${pct}% < floor ${floor}%"
		fail=1
	else
		echo "covergate: ok   $pkg: ${pct}% (floor ${floor}%)"
	fi
}

cd "$ROOT"
check ./internal/cpa 84.0
check ./internal/core 85.0
exit "$fail"
