#!/usr/bin/env sh
# Blocking gate for "the oracle stays small enough to believe": the
# number of counted lines of the dense reference executor,
# crates/ir/src/exec.rs, must not grow. `ir::run_dense` is the oracle
# of every equivalence suite; each mechanism it keeps beyond running
# the program literally (the copy's lines, whole loops, the held
# accumulator, the read made once, the zero-run skip) has a number in
# EXPERIMENTS.md that shows its effect, and one that cannot show its
# effect does not stay.
#
# Counted: every line of exec.rs before its first `#[cfg(test)]` that
# is neither blank nor a `//` comment (doc comments included in the
# latter).
#
# When the count falls, ratchet ci/oracle_lines.txt down.
set -eu
cd "$(dirname "$0")/.."

budget_file="ci/oracle_lines.txt"
count=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }
' crates/ir/src/exec.rs)
budget=$(tr -d '[:space:]' < "$budget_file")
echo "counted lines of the dense oracle, crates/ir/src/exec.rs: $count (budget: $budget)"
if [ "$count" -gt "$budget" ]; then
    echo "error: the dense oracle grew ($count > $budget lines)." >&2
    echo "The count may only fall: what the oracle does beyond running" >&2
    echo "the program literally is a mechanism to delete, not to add to." >&2
    exit 1
fi
