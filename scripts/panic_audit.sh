#!/usr/bin/env bash
# Panic audit: enforce the panic-free guarantee for the library crates on
# the pipeline's hot path. Non-test code in these crates must not contain
# unwrap/expect or the panicking macros — every failure has to surface as
# a typed `transer_common::Error` so the degradation ladder (DESIGN.md)
# can observe it.
#
# Documented-precondition asserts (`assert!`/`assert_eq!`/`debug_assert!`)
# are deliberately NOT denied: they guard internal invariants with a
# `# Panics` section in the doc, which is a different contract from an
# error path swallowed by `unwrap`.
#
# A line may be exempted by listing `path:line-text-fragment` in
# scripts/panic_allowlist.txt (currently empty: the sweep removed every
# occurrence).
#
# The same extractor also counts the production lines of every crate
# (printed as `panic_audit: N production lines (crates/*/src)`, the size
# figure the change log quotes) and keeps `std`'s DefaultHasher out of
# them: its algorithm is unspecified across Rust releases, so every hash
# that reaches an output or an artefact goes through the workspace's own
# SipHash-1-3 (`transer_common::hash`). Test code may keep it as an
# oracle. No allowlist applies to this check.
set -euo pipefail
cd "$(dirname "$0")/.."

CRATES=(common similarity blocking knn ml linalg core trace serve)
ALLOWLIST=scripts/panic_allowlist.txt
DENY='\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|todo!\(|unimplemented!\('

# Print `file:line:text` for every line outside `#[cfg(test)]` items: test
# code is allowed to unwrap. A `#[cfg(test)]` attribute skips only the item
# it attributes — up to the brace that closes the item's body, or to the
# `;` ending a body-less item (`mod oracle;`, `use ...;`) — so production
# code after a mid-file test-only helper is still audited. Braces are
# counted after string and char literals and `//` comments are blanked, so
# a `"{"` in a message cannot unbalance the scan.
PRODUCTION_LINES=$(cat <<'AWK'
function scrub(s) {
    gsub(/\\\\/, "", s)
    gsub(/\\"/, "", s)
    gsub(/"[^"]*"/, "\"\"", s)
    gsub(/'([^'\\]|\\.)'/, "' '", s)
    sub(/\/\/.*$/, "", s)
    return s
}
FNR == 1 { skipping = 0 }
{
    code = scrub($0)
    if (!skipping) {
        at = index(code, "#[cfg(test)]")
        if (at == 0) { print FILENAME ":" FNR ":" $0; next }
        skipping = 1; depth = 0; nest = 0; opened = 0
        code = substr(code, at + 12)
    }
    n = length(code)
    for (i = 1; i <= n && skipping; i++) {
        c = substr(code, i, 1)
        if (c == "{") { depth++; opened = 1 }
        else if (c == "}") { depth--; if (opened && depth == 0) skipping = 0 }
        else if (c == "(" || c == "[") nest++
        else if (c == ")" || c == "]") nest--
        else if (c == ";" && !opened && depth == 0 && nest == 0) skipping = 0
    }
}
AWK
)

violations=0
for crate in "${CRATES[@]}"; do
    while IFS= read -r file; do
        hits=$(awk "$PRODUCTION_LINES" "$file" \
            | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' \
            | grep -E "$DENY" || true)
        [ -z "$hits" ] && continue
        while IFS= read -r hit; do
            if [ -s "$ALLOWLIST" ]; then
                path=${hit%%:*}
                if grep -qF -- "$path" "$ALLOWLIST" \
                    && grep -qF -- "$(echo "${hit#*:*:}" | tr -s '[:space:]' ' ')" "$ALLOWLIST"; then
                    continue
                fi
            fi
            echo "panic_audit: $hit"
            violations=$((violations + 1))
        done <<< "$hits"
    done < <(find "crates/$crate/src" -name '*.rs')
done

if [ "$violations" -gt 0 ]; then
    echo "panic_audit: $violations panicking construct(s) in library code" >&2
    echo "panic_audit: convert to typed errors or add to $ALLOWLIST" >&2
    exit 1
fi
echo "panic_audit: clean (${CRATES[*]})"

production=$(find crates/*/src -name '*.rs' -exec awk "$PRODUCTION_LINES" {} +)
echo "panic_audit: $(printf '%s\n' "$production" | wc -l) production lines (crates/*/src)"

hasher_hits=$(printf '%s\n' "$production" \
    | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' \
    | grep -E 'DefaultHasher' || true)
if [ -n "$hasher_hits" ]; then
    echo "$hasher_hits" | sed 's/^/panic_audit: DefaultHasher in production code: /'
    echo "panic_audit: hash with transer_common::hash instead" >&2
    exit 1
fi
echo "panic_audit: no DefaultHasher in production code (crates/*/src)"
