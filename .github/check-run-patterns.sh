#!/usr/bin/env bash
# Fails if a `go test -run PATTERN PKG...` line of the CI workflow selects
# nothing: a typo in a pattern makes its step pass without running a test.
# Every listed package must hold a test, benchmark, fuzz target or example
# the whole pattern matches, and every |-separated alternative must match
# one in some listed package. -run '^$' (select nothing on purpose) is
# skipped.
#
# Usage: bash .github/check-run-patterns.sh [workflow.yml]
set -euo pipefail
wf=${1:-.github/workflows/ci.yml}
mod=$(go list -m)

# names maps each import path to its top-level test names, one a line, from
# one listing: names print before their package's "ok" line, and a package
# without tests prints "?" and no names.
declare -A names
pending=()
while IFS= read -r line; do
	case "$line" in
	ok*) pkg=$(awk '{print $2}' <<<"$line")
		names[$pkg]=$(printf '%s\n' "${pending[@]}")
		pending=() ;;
	\?*) ;;
	*) [ -n "$line" ] && pending+=("$line") ;;
	esac
done < <(go test -list . ./...)

# matches PATTERN PKG... prints the names in PKG... the pattern selects
# (grep -E stands in for RE2, which agrees on the workflow's patterns).
matches() {
	local pat=$1; shift
	for p in "$@"; do printf '%s\n' "${names[$p]:-}"; done | grep -E -- "$pat" || true
}

fail=0
while IFS= read -r line; do
	pat=$(sed -nE "s/.*-run '([^']*)'.*/\1/p; t; s/.*-run ([^ ]+).*/\1/p" <<<"$line")
	[ "$pat" = '^$' ] && continue
	pkgs=() where=()
	for arg in $(grep -oE '(^| )\./[^ ]*' <<<"$line"); do
		where+=("$arg")
		if [ "$arg" = ./... ]; then
			pkgs+=("${!names[@]}")
		else
			pkgs+=("$mod${arg#.}")
		fi
	done
	if [ ${#where[@]} -eq 0 ]; then
		echo "no package on: $line" >&2
		fail=1
		continue
	fi
	# Each named package must select a test; under ./... the pattern need
	# only select one somewhere.
	for arg in "${where[@]}"; do
		set -- "$mod${arg#.}"
		[ "$arg" = ./... ] && set -- "${pkgs[@]}"
		if [ -z "$(matches "$pat" "$@")" ]; then
			echo "-run '$pat' selects nothing in $arg" >&2
			fail=1
		fi
	done
	IFS='|' read -ra alts <<<"$pat"
	if [[ "$pat" != *"("* ]] && [ ${#alts[@]} -gt 1 ]; then
		for alt in "${alts[@]}"; do
			if [ -z "$(matches "$alt" "${pkgs[@]}")" ]; then
				echo "-run '$pat': alternative '$alt' selects nothing in ${where[*]}" >&2
				fail=1
			fi
		done
	fi
done < <(grep -E 'go test .*-run ' "$wf")
exit $fail
