//! A compiler whose sysroot has no `rust-lld` still builds native
//! kernels: they link through `cc`, as on every platform but Linux.
//!
//! The compiler is the host's own toolchain without that one tool: its
//! `rustc` and the libraries beside it hard-linked into a scratch sysroot
//! (rustc takes its sysroot from where its driver library is, symlinks
//! followed, so that must be a real file there) whose
//! `lib/rustlib/<triple>/lib` is the host's. An official rustc also asks
//! for its own `lld` when it links through `cc`; the builds that ship
//! without `rust-lld` (a distribution's package, say) do not, and the
//! wrapper the store is pointed at passes `-C linker-features=-lld` to
//! make this one behave like them. Being a wrapper, outside any sysroot,
//! it is asked for its sysroot.
//!
//! Own test binary, as `probe_timeout.rs`: `BERNOULLI_RUSTC` must be set
//! before anything asks for the compiler.

#![cfg(target_os = "linux")]

use bernoulli_kernel_cache::{rustc_info, ArtifactSpec, KernelStore, Library, RUSTC_ENV};
use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};
use std::process::Command;

const ADD_SRC: &str = "#![no_std]\n#[panic_handler]\nfn panic(_: &core::panic::PanicInfo) -> ! {\n    loop {}\n}\n#[no_mangle]\npub extern \"C\" fn kc_test_add2(a: i64, b: i64) -> i64 { a + b }\n";

/// What `rustc` from `PATH` prints for `args`, or `None`.
fn host_rustc(args: &[&str]) -> Option<String> {
    let out = Command::new("rustc").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The toolchain at `from` without `rust-lld`, made at `to`; its
/// `rustc`, or `None` when `to` cannot hard-link to `from`.
fn toolchain_without_rust_lld(from: &Path, triple: &str, to: &Path) -> Option<PathBuf> {
    let rustlib = |root: &Path| root.join("lib").join("rustlib").join(triple);
    std::fs::create_dir_all(to.join("bin")).ok()?;
    std::fs::create_dir_all(rustlib(to)).ok()?;
    let rustc = to.join("bin").join("rustc");
    std::fs::hard_link(from.join("bin").join("rustc"), &rustc).ok()?;
    for entry in std::fs::read_dir(from.join("lib")).ok()? {
        let path = entry.ok()?.path();
        if path.is_file() {
            std::fs::hard_link(&path, to.join("lib").join(path.file_name()?)).ok()?;
        }
    }
    std::os::unix::fs::symlink(rustlib(from).join("lib"), rustlib(to).join("lib")).ok()?;
    Some(rustc)
}

#[test]
fn a_compiler_without_rust_lld_links_kernels_through_cc() {
    let (Some(sysroot), Some(version)) =
        (host_rustc(&["--print", "sysroot"]), host_rustc(&["-vV"]))
    else {
        eprintln!("SKIP: no rustc on host");
        return;
    };
    let triple = version
        .lines()
        .find_map(|line| line.strip_prefix("host: "))
        .expect("`rustc -vV` names the host");
    let dir = std::env::temp_dir().join(format!("bernoulli-kc-no-lld-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let toolchain = dir.join("toolchain");
    let Some(real) = toolchain_without_rust_lld(Path::new(&sysroot), triple, &toolchain) else {
        eprintln!("SKIP: cannot hard-link {sysroot} into {toolchain:?}");
        let _ = std::fs::remove_dir_all(&dir);
        return;
    };
    let wrapper = dir.join("wrapper").join("rustc");
    std::fs::create_dir_all(dir.join("wrapper")).expect("creates");
    // Cargo runs tests with the host toolchain's `lib` on
    // `LD_LIBRARY_PATH`, where the driver library would be found first,
    // and with it the host's sysroot.
    let script = format!(
        "#!/bin/sh\nunset LD_LIBRARY_PATH\nexec '{}' -C linker-features=-lld \"$@\"\n",
        real.display()
    );
    std::fs::write(&wrapper, script).expect("writes");
    std::fs::set_permissions(&wrapper, std::fs::Permissions::from_mode(0o755)).expect("chmod");

    // The compiler really has no `rust-lld`: told to link with it, it
    // fails, as every kernel build would if it were told to.
    let src = dir.join("add.rs");
    std::fs::write(&src, ADD_SRC).expect("writes");
    let by_lld = Command::new(&wrapper)
        .args(["--crate-type=cdylib", "-C", "panic=abort"])
        .args(["-C", "linker=rust-lld", "-C", "linker-flavor=ld.lld", "-o"])
        .arg(dir.join("add.so"))
        .arg(&src)
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&by_lld.stderr);
    assert!(
        !by_lld.status.success() && stderr.contains("linker `rust-lld` not found"),
        "{stderr}"
    );

    std::env::set_var(RUSTC_ENV, &wrapper);
    let info = rustc_info().expect("the wrapper is a compiler");
    assert_eq!(info.binary, wrapper);
    assert!(!info.rust_lld, "{info:?}");

    let store = KernelStore::at(dir.join("store"));
    let spec = ArtifactSpec::new("no-rust-lld".to_string(), ADD_SRC.to_string()).expect("names");
    let built = store.get_or_build(&spec).expect("links through cc");
    let lib = Library::open(&built.path).expect("opens");
    let sym = lib.symbol("kc_test_add2").expect("exports");
    // Safety: the symbol was just built with exactly this signature, and
    // `lib` outlives the call.
    let add: extern "C" fn(i64, i64) -> i64 = unsafe { std::mem::transmute(sym) };
    assert_eq!(add(20, 22), 42);
    // `cc`'s start files leave their weak references behind.
    let nm = Command::new("nm")
        .args(["-D", "--undefined-only"])
        .arg(&built.path)
        .output()
        .ok();
    if let Some(nm) = nm.filter(|nm| nm.status.success()) {
        let undefined = String::from_utf8_lossy(&nm.stdout);
        assert!(undefined.contains("__cxa_finalize"), "{undefined}");
    }
    drop(lib);
    let _ = std::fs::remove_dir_all(&dir);
}
