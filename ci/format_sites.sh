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
# Counted: every line of crates/synth/src/*.rs, crates/service/src/*.rs,
# crates/kernel-cache/src and crates/blas/src/par, outside comments and outside the file's
# `#[cfg(test)]` modules (which close every file that has them), that
# contains the quoted name of a `LAYOUTS` entry or of a host view —
# in any position: match arms, tuple arms, or-patterns, `matches!`,
# `==` / `!=`.
#
# The lines left, all in crates/service/src/advise.rs:
# - `DEFAULT_ADVISOR_FORMATS`, the advisor's default roster (a choice,
#   not a description);
# - `view_for_features`' two constructors: `bsr` is advised at the
#   instance's dominant block shape, `diagsplit` is a view without a
#   layout.
# `emit.rs`, `compiled.rs`, `interp.rs` and `codegen.rs` must read 0:
# the printer, the kernel crate, the interpreter and the record of the
# codegen decisions between them (promotion, edge split, tiling, the
# row-band entry) name a level kind where they need one, never a format
# — a tiling is `Blocks` or `Strips` because of the level under the
# rows, whichever format declares it. So must the grammar of a view
# (crates/formats/src/view.rs), its reader (crates/formats/src/view_text.rs),
# the checker and walk derived from a format's levels
# (crates/formats/src/walk.rs), the assembler derived from them
# (crates/formats/src/assemble.rs), the level descriptions themselves
# (crates/formats/src/level.rs), the generic cursor and the dense lookup
# derived from them (crates/formats/src/cursor.rs), the one search per
# level kind that the cursor and every kernel crate run
# (crates/formats/src/search.rs), the one iteration per level kind that
# the cursor and every derived walk run (crates/formats/src/iterate.rs)
# and the registry with its one by-name
# lookup, `Layout::named` (crates/formats/src/layout.rs): none names a
# format. There is no second registry: a format is built by
# name through `LAYOUTS`, and a host view by its own constructor.
#
# When you remove a site, ratchet ci/format_sites.txt down.
set -eu
cd "$(dirname "$0")/.."

budget_file="ci/format_sites.txt"
names='csr|csc|coo|dia|ell|jad|sky|bsr|vbr|dcsr|dense|diagsplit|spvec|hashvec'
count=0
for file in crates/synth/src/*.rs crates/service/src/*.rs $(find crates/kernel-cache/src crates/blas/src/par -name '*.rs' | sort) \
    crates/formats/src/view.rs crates/formats/src/view_text.rs crates/formats/src/walk.rs \
    crates/formats/src/assemble.rs crates/formats/src/layout.rs crates/formats/src/level.rs \
    crates/formats/src/cursor.rs crates/formats/src/search.rs crates/formats/src/iterate.rs; do
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
    */emit.rs | */compiled.rs | */interp.rs | */codegen.rs | */view.rs | */view_text.rs | */walk.rs | \
        */assemble.rs | */layout.rs | */level.rs | */cursor.rs | */search.rs)
        if [ "$n" -gt 0 ]; then
            echo "error: $file names a format ($n lines); it must name none." >&2
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
