#!/usr/bin/env sh
# Blocking gate for "state is owned by values, not process-wide
# statics": the number of ambient state slots in the library sources
# must not grow. A compile's polyhedral memo and budget are handed to
# the code that uses them (`bernoulli_polyhedra::Cx`); a session's or a
# service's caches are fields of that value.
#
# Counted: every `thread_local!` block, and every `static` item whose
# type holds a `OnceLock`, `Mutex`, `RwLock`, `RefCell` or an atomic,
# in crates/*/src, outside comments and outside `#[cfg(test)]` items.
#
# The slots left, and why each stays:
# - crates/pool/src/lib.rs `GLOBAL`: the process-wide worker pool that
#   an owner without a pool of its own fans out on (sized once from
#   BERNOULLI_THREADS or the host);
# - crates/kernel-cache/src/lib.rs `INFO`: the compiler's `-vV` probe,
#   a fact about the host, run once per process;
# - crates/kernel-cache/src/lib.rs `DEFAULT`: the default on-disk
#   artifact store behind `CompiledKernel::load`, one handle per
#   directory so that its build flights and loaded libraries are shared;
# - crates/govern/src/lib.rs `TABLE`: the fault-injection table, read
#   from BERNOULLI_FAULTS (compiled only with the `faults` feature);
# - crates/service/src/persist.rs `TMP_SEQ`: a counter that makes the
#   temporary file names of concurrent persistent-cache writes unique;
# - crates/polyhedra/src/cache.rs `TIER` (`shared_tier`): the memo every
#   `Service` shares. It leaves with ROADMAP item 1(a), once the
#   benchmark harness reads per-service stats instead of the tier.
#
# When you remove a slot, ratchet ci/statics.txt down.
set -eu
cd "$(dirname "$0")/.."

budget_file="ci/statics.txt"
count=0
for file in $(find crates/*/src -name '*.rs' | sort); do
    sites=$(awk '
        /^#\[cfg\(test\)\]/ { skip = 1; next }
        skip && /^(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+;/ { skip = 0; next }
        skip && /^}/ { skip = 0; next }
        skip { next }
        /^[[:space:]]*\/\// { next }
        tl && /^}/ { tl = 0; next }
        tl { next }
        /thread_local!/ { print FILENAME ":" FNR ": " $0; tl = 1; next }
        /^[[:space:]]*(pub(\([a-z]+\))? )?static [A-Za-z_0-9]+:.*(OnceLock|Mutex|RwLock|RefCell|Atomic)/ {
            print FILENAME ":" FNR ": " $0
        }
    ' "$file")
    n=$(printf '%s' "$sites" | grep -c . || true)
    if [ "$n" -gt 0 ]; then
        printf '%s\n' "$sites" | sed 's/^/  /'
        count=$((count + n))
    fi
done
budget=$(tr -d '[:space:]' < "$budget_file")
echo "thread-locals and stateful statics in crates/*/src: $count (budget: $budget)"
if [ "$count" -gt "$budget" ]; then
    echo "error: ambient state slots exceeded ($count > $budget)." >&2
    echo "Hand the state to the code that uses it as an argument, or" >&2
    echo "make it a field of the Session, Service or KernelStore that owns it." >&2
    exit 1
fi
