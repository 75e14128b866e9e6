#!/usr/bin/env bash
# Fails if the compiler fuses a product into a multiply-add on a line of this
# module. Go never fuses x*y + z on amd64, but on arm64 (as on ppc64le,
# s390x, riscv64 and loong64) it does unless the product is converted
# explicitly, float64(x*y) or float32(x*y); a fused line rounds once where
# amd64 rounds twice, so reports would differ by CPU. The listing is arm64's
# assembly of every package but benchmark/, whose fused lines only compute
# measurements.
#
# Usage: bash .github/check-no-fusion.sh
set -euo pipefail
mod=$(go list -m)
root=$(go list -m -f '{{.Dir}}')
pkgs=$(go list ./... | grep -v "^$mod/benchmark$")
asm=$(mktemp)
trap 'rm -f "$asm"' EXIT
# shellcheck disable=SC2086 # one argument per package
if ! GOARCH=arm64 go build -o /dev/null -gcflags="$mod/...=-S" $pkgs >"$asm" 2>&1; then
	grep -v '^	0x' "$asm" >&2
	exit 1
fi
# A listing line is "\t0x… … (file:line)\tMNEMONIC\toperands".
fused=$(awk -F'\t' -v r="($root/" '$3 ~ /^(FMADD|FMSUB|FNMADD|FNMSUB)[SD]$/ && (i = index($2, r)) {
	loc = substr($2, i + length(r)); print substr(loc, 1, length(loc) - 1) }' "$asm" | sort -u -t: -k1,1 -k2,2n)
if [ -n "$fused" ]; then
	echo "fused multiply-add on these lines; convert the product, float64(x*y):" >&2
	echo "$fused" >&2
	exit 1
fi
