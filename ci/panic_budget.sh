#!/usr/bin/env sh
# Blocking gate for the typed-error contract: the number of
# `unwrap(` / `expect(` / `panic!(` sites in the library sources of the
# five error-hierarchy crates (ir, formats, polyhedra, synth, service)
# must not grow. New caller-triggerable failures belong in the typed
# error enums (`IrError`, `FormatError`, `PolyError`, `SynthError`,
# `ServiceError`), not in
# panics; panics are reserved for internal invariants (and #[cfg(test)]
# code inside src/, which this textual count includes — keep that in
# mind when adjusting).
#
# When you genuinely remove panic sites, ratchet ci/panic_budget.txt
# down. Raising it needs a review that the new site really is an
# internal invariant that cannot be a Result.
set -eu
cd "$(dirname "$0")/.."

budget_file="ci/panic_budget.txt"
count=0
for dir in crates/ir/src crates/formats/src crates/polyhedra/src crates/synth/src crates/service/src; do
    c=$(grep -rEo '\.unwrap\(|\.expect\(|panic!\(' "$dir" --include='*.rs' | wc -l)
    echo "  $dir: $c"
    count=$((count + c))
done
budget=$(tr -d '[:space:]' < "$budget_file")
echo "panic-ish sites in lib sources: $count (budget: $budget)"
if [ "$count" -gt "$budget" ]; then
    echo "error: panic budget exceeded ($count > $budget)." >&2
    echo "Convert the new failure path to a typed error, or justify the" >&2
    echo "invariant and raise ci/panic_budget.txt in the same change." >&2
    exit 1
fi
