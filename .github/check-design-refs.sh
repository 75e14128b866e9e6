#!/usr/bin/env bash
# Fails if a section reference names no section of DESIGN.md. A reference is
# a section sign followed by digits anywhere in a .go, .s, .sh or .yml file
# of the tree, or in README.md, ROADMAP.md, the verify skill or DESIGN.md
# itself; a section is a "## §N" heading of DESIGN.md. Each match is read on
# its own, so a reference whose "DESIGN.md" and number a comment line break
# splits is checked too. The paper's sections (§III-C) have no digit after
# the sign and are not references. CHANGES.md is history and is not read.
#
# Usage: bash .github/check-design-refs.sh   (from the repository root)
set -euo pipefail
design=DESIGN.md

declare -A have=()
while read -r n; do have[$n]=1; done < <(sed -nE 's/^## §([0-9]+)([^0-9].*)?$/\1/p' "$design")
if [ ${#have[@]} -eq 0 ]; then
	echo "$design has no \"## §N\" heading" >&2
	exit 1
fi

# Tracked and new files, without what .gitignore names (build output).
mapfile -t files < <({
	git ls-files -co --exclude-standard -- '*.go' '*.s' '*.sh' '*.yml'
	printf '%s\n' README.md ROADMAP.md .claude/skills/verify/SKILL.md "$design"
} | sort -u)

fail=0
while IFS= read -r hit; do
	n=${hit##*§}
	if [ -z "${have[$n]:-}" ]; then
		echo "$hit: no \"## §$n\" heading in $design" >&2
		fail=1
	fi
done < <(grep -HnoE '§[0-9]+' -- "${files[@]}" || true)
exit $fail
