#!/usr/bin/env sh
# Blocking gate for "one description per format": the number of places
# in the library sources that dispatch on a format *name* (a match arm
# `"csr" =>`) must not grow. A format is described once, by the
# `Layout` declared beside its struct (crates/formats/src/layout.rs);
# code that needs a format by name resolves it there
# (`Layout::of_view`, `view_by_name`, `format_name`) and reads the
# layout, instead of keeping a name table of its own that a tenth
# format would have to be added to.
#
# The one site left is `AnyFormat::try_from_triplets`, which builds the
# typed instance for any scalar `T` (a layout's constructor is a plain
# fn pointer at `f64`) and also knows `dense` and `diagsplit`.
#
# When you remove a site, ratchet ci/format_sites.txt down.
set -eu
cd "$(dirname "$0")/.."

budget_file="ci/format_sites.txt"
sites=$(grep -rnE '"csr" *=>' crates/*/src src --include='*.rs' || true)
count=$(printf '%s' "$sites" | grep -c . || true)
budget=$(tr -d '[:space:]' < "$budget_file")
[ -n "$sites" ] && printf '%s\n' "$sites" | sed 's/^/  /'
echo "format-name dispatch sites in lib sources: $count (budget: $budget)"
if [ "$count" -gt "$budget" ]; then
    echo "error: format dispatch sites exceeded ($count > $budget)." >&2
    echo "Resolve the name through crates/formats/src/layout.rs and read" >&2
    echo "the layout instead of matching on format names." >&2
    exit 1
fi
