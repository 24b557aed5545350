#!/usr/bin/env sh
# Blocking gate for "a format is described once": the number of lines of
# the compiler's sources that spell out a format or view *name* must not
# grow. A format is described by the `Layout` and the level descriptions
# declared beside its struct (crates/formats/src/{layout,level}.rs);
# code that needs to know how a view is stored or walked resolves the
# name there (`levels_of_view`, `Layout::of_view`, `view_by_name`,
# `format_name`) and reads the description, instead of keeping a name
# table of its own that a tenth format would have to be added to.
#
# Counted: every line of crates/synth/src/*.rs, crates/kernel-cache/src
# and crates/blas/src/par, outside comments and outside the file's
# `#[cfg(test)]` modules (which close every file that has them), that
# contains the quoted name of a `LAYOUTS` entry or of a host view —
# in any position: match arms, tuple arms, or-patterns, `matches!`,
# `==` / `!=`.
#
# The lines left, all in crates/synth/src/advise.rs:
# - `DEFAULT_ADVISOR_FORMATS`, the advisor's default roster (a choice,
#   not a description);
# - `view_for_features`' two constructors: `bsr` is advised at the
#   instance's dominant block shape, `diagsplit` is a view without a
#   layout.
# `emit.rs`, `compiled.rs` and `interp.rs` must read 0. Not counted,
# because it is in `formats` itself: `AnyFormat::try_from_triplets`,
# which builds the typed instance for any scalar `T` (a layout's
# constructor is a plain fn pointer at `f64`).
#
# When you remove a site, ratchet ci/format_sites.txt down.
set -eu
cd "$(dirname "$0")/.."

budget_file="ci/format_sites.txt"
names='csr|csc|coo|dia|ell|jad|sky|bsr|vbr|dcsr|dense|diagsplit|spvec|hashvec'
count=0
for file in crates/synth/src/*.rs $(find crates/kernel-cache/src crates/blas/src/par -name '*.rs' | sort); do
    sites=$(awk -v names="\"($names)\"" '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        $0 ~ names { print FILENAME ":" FNR ": " $0 }
    ' "$file")
    n=$(printf '%s' "$sites" | grep -c . || true)
    if [ "$n" -gt 0 ]; then
        printf '%s\n' "$sites" | sed 's/^/  /'
        count=$((count + n))
    fi
    case "$file" in
    */emit.rs | */compiled.rs | */interp.rs)
        if [ "$n" -gt 0 ]; then
            echo "error: $file names a format ($n lines); it must read the level descriptions." >&2
            exit 1
        fi
        ;;
    esac
done
budget=$(tr -d '[:space:]' < "$budget_file")
echo "lines naming a format in the compiler's sources: $count (budget: $budget)"
if [ "$count" -gt "$budget" ]; then
    echo "error: format-name sites exceeded ($count > $budget)." >&2
    echo "Resolve the name through crates/formats/src/layout.rs and read" >&2
    echo "the layout or the level description instead of matching on names." >&2
    exit 1
fi
