//! The account files every sweep deployment reads, pinned byte for byte.
//!
//! Under the UID variation each variant opens its own copy of
//! `/etc/passwd` and `/etc/group` with the UID and GID columns reexpressed
//! (the paper's unshared files, §3.4). `CompiledSystem::provision_world`
//! writes those copies into a world; this golden records the full text of
//! every `/etc/passwd*` and `/etc/group*` file it leaves in each world of
//! the catalogue, for every security-sweep configuration, and in each
//! artifact's own kernel template. It was generated before provisioning
//! derived the copies from the world's files instead of a separate account
//! database, and holds them to the same bytes.
//!
//! Regenerate (only when provisioning changes on purpose) with
//! `NVARIANT_REGEN_GOLDEN=1 cargo test --test provisioned_accounts`.

use nvariant_apps::campaigns::security_sweep_configs;
use nvariant_apps::scenarios::compiled_httpd_system;
use nvariant_simos::{OsKernel, WorldTemplate};
use std::path::PathBuf;

/// Appends every account file of `kernel`, in path order: a header line
/// naming the configuration, the world, the path and the length in bytes,
/// then the file's text as it is.
fn push_account_files(text: &mut String, config: &str, world: &str, kernel: &OsKernel) {
    for (path, inode) in kernel.fs().iter() {
        if path.starts_with("/etc/passwd") || path.starts_with("/etc/group") {
            text.push_str(&format!(
                "== config={config:?} world={world:?} path={path} bytes={}\n",
                inode.len()
            ));
            text.push_str(&String::from_utf8_lossy(&inode.data));
        }
    }
}

fn provisioned_accounts_text() -> String {
    let mut text = String::new();
    for config in security_sweep_configs() {
        let compiled = compiled_httpd_system(&config);
        let label = config.label();
        push_account_files(&mut text, &label, "template", compiled.kernel_template());
        for world in WorldTemplate::catalogue() {
            let provisioned = compiled.provision_world(world.kernel());
            push_account_files(&mut text, &label, world.name(), &provisioned);
        }
    }
    text
}

#[test]
fn provisioned_account_files_match_the_committed_golden() {
    let text = provisioned_accounts_text();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("provisioned_accounts_golden.txt");
    if std::env::var_os("NVARIANT_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &text).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it on a known-good \
             tree with NVARIANT_REGEN_GOLDEN=1 cargo test --test provisioned_accounts",
            path.display()
        )
    });
    assert!(
        text == golden,
        "provisioned account files drifted from the committed golden fixture \
         (lengths: got {}, golden {})",
        text.len(),
        golden.len()
    );
}
