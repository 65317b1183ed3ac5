//! Construction of the standard case-study world: users, account files,
//! server configuration, document root, and sensitive targets.
//!
//! The layout mirrors the environment of the paper's Apache case study:
//! the server is configured (in `/etc/httpd.conf`) to run as the `httpd`
//! user, maps that name to a UID by reading `/etc/passwd`, serves static
//! pages from `/var/www/html`, appends to a root-owned log file, and the
//! attacker's prize is the root-only `/etc/shadow`.

use crate::fs::FileMode;
use crate::kernel::OsKernel;
use crate::passwd::{GroupEntry, PasswdEntry};
use nvariant_types::{Gid, Uid};

/// Description of one user account to create in the world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UserSpec {
    /// Login name.
    pub name: String,
    /// User ID.
    pub uid: Uid,
    /// Primary group ID.
    pub gid: Gid,
}

impl UserSpec {
    /// Creates a user specification.
    #[must_use]
    pub fn new(name: &str, uid: u32, gid: u32) -> Self {
        UserSpec {
            name: name.to_string(),
            uid: Uid::new(uid),
            gid: Gid::new(gid),
        }
    }
}

/// A file to create in the world.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FileSpec {
    path: String,
    data: Vec<u8>,
    owner: Uid,
    group: Gid,
    mode: FileMode,
}

/// Builder for the simulated world used by the examples, tests and
/// benchmarks.
///
/// # Example
///
/// ```
/// use nvariant_simos::{PasswdEntry, WorldBuilder};
///
/// let kernel = WorldBuilder::standard().build();
/// assert!(kernel.fs().exists("/var/www/html/index.html"));
/// // The accounts live in the file the server parses.
/// let passwd = kernel.fs().get("/etc/passwd").unwrap();
/// let httpd = String::from_utf8_lossy(&passwd.data)
///     .lines()
///     .filter_map(PasswdEntry::parse)
///     .find(|entry| entry.name == "httpd")
///     .unwrap();
/// assert_eq!(httpd.uid.as_u32(), 48);
/// ```
#[derive(Clone, Debug, Default)]
pub struct WorldBuilder {
    users: Vec<UserSpec>,
    files: Vec<FileSpec>,
    server_user: String,
    document_root: String,
    listen_port: u16,
    log_file: String,
}

/// The UID of the `httpd` service account in the standard world.
pub const HTTPD_UID: u32 = 48;

impl WorldBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        WorldBuilder {
            server_user: "httpd".to_string(),
            document_root: "/var/www/html".to_string(),
            listen_port: 80,
            log_file: "/var/log/httpd.log".to_string(),
            ..WorldBuilder::default()
        }
    }

    /// Creates the standard case-study world:
    ///
    /// * accounts `root` (0), `httpd` (48), `alice` (1000);
    /// * `/etc/passwd` and `/etc/group` rendered from those accounts;
    /// * `/etc/httpd.conf` configuring the server;
    /// * a document root with a static-page mix modelled on the WebBench
    ///   workload (small and medium HTML pages plus an image);
    /// * root-only `/etc/shadow` (the attacker's target) and a root-owned
    ///   log file the server must escalate to append to.
    #[must_use]
    pub fn standard() -> Self {
        WorldBuilder::new()
            .user(UserSpec::new("root", 0, 0))
            .user(UserSpec::new("httpd", HTTPD_UID, HTTPD_UID))
            .user(UserSpec::new("alice", 1000, 100))
            .standard_shadow()
            .standard_pages()
        // `/etc/httpd.conf` and the log file are materialized by `build()`,
        // so overrides applied after `standard()` still take effect.
    }

    /// Adds the standard root-only `/etc/shadow` whose hashes are the
    /// attacker's prize (attack judges grep the responses for its contents).
    #[must_use]
    pub fn standard_shadow(self) -> Self {
        self.file_with(
            "/etc/shadow",
            b"root:$6$rEdUnDaNt$EncryptedRootPasswordHash:19000:0:99999:7:::\nhttpd:!!:19000::::::\nalice:$6$aLiCe$AnotherHash:19000:0:99999:7:::\n".to_vec(),
            Uid::ROOT,
            Gid::ROOT,
            FileMode::PRIVATE,
        )
    }

    /// Adds the WebBench-style static page mix under the current document
    /// root (small and medium HTML pages plus an image and an admin page).
    #[must_use]
    pub fn standard_pages(self) -> Self {
        self.page("index.html", &WorldBuilder::html_page("Welcome", 16))
            .page("about.html", &WorldBuilder::html_page("About Us", 24))
            .page("products.html", &WorldBuilder::html_page("Products", 48))
            .page("contact.html", &WorldBuilder::html_page("Contact", 8))
            .page("news.html", &WorldBuilder::html_page("News Archive", 96))
            .page(
                "logo.png",
                &String::from_utf8(vec![b'P'; 4096]).expect("ascii fill is valid utf-8"),
            )
            .page(
                "admin/status.html",
                &WorldBuilder::html_page("Server Status", 12),
            )
    }

    fn html_page(title: &str, paragraphs: usize) -> String {
        let mut body = String::new();
        body.push_str("<html><head><title>");
        body.push_str(title);
        body.push_str("</title></head><body>\n");
        for i in 0..paragraphs {
            body.push_str(&format!(
                "<p>Paragraph {i} of the {title} page, served by the redundant \
                 data diversity case study server.</p>\n"
            ));
        }
        body.push_str("</body></html>\n");
        body
    }

    /// Adds a user account (and a group of the same name).
    #[must_use]
    pub fn user(mut self, user: UserSpec) -> Self {
        self.users.push(user);
        self
    }

    /// Adds a world-readable, root-owned file.
    #[must_use]
    pub fn file(self, path: &str, data: Vec<u8>) -> Self {
        self.file_with(path, data, Uid::ROOT, Gid::ROOT, FileMode::PUBLIC)
    }

    /// Adds a file with explicit ownership and mode.
    #[must_use]
    pub fn file_with(
        mut self,
        path: &str,
        data: Vec<u8>,
        owner: Uid,
        group: Gid,
        mode: FileMode,
    ) -> Self {
        self.files.push(FileSpec {
            path: path.to_string(),
            data,
            owner,
            group,
            mode,
        });
        self
    }

    /// Adds a static page under the document root.
    #[must_use]
    pub fn page(self, relative_path: &str, contents: &str) -> Self {
        let path = format!("{}/{}", self.document_root, relative_path);
        self.file(&path, contents.as_bytes().to_vec())
    }

    /// Overrides the server's configured user name.
    #[must_use]
    pub fn server_user(mut self, name: &str) -> Self {
        self.server_user = name.to_string();
        self
    }

    /// Overrides the document root rendered into `/etc/httpd.conf`. Pages
    /// added via [`WorldBuilder::page`] *after* this call land under the new
    /// root (the path is resolved when the page is added).
    #[must_use]
    pub fn with_document_root(mut self, path: &str) -> Self {
        self.document_root = path.to_string();
        self
    }

    /// Overrides the port the server listens on.
    #[must_use]
    pub fn listen_port(mut self, port: u16) -> Self {
        self.listen_port = port;
        self
    }

    /// Overrides the server's log file path.
    #[must_use]
    pub fn log_file(mut self, path: &str) -> Self {
        self.log_file = path.to_string();
        self
    }

    /// Renders `/etc/httpd.conf` from the configured server settings.
    #[must_use]
    pub fn render_httpd_conf(&self) -> String {
        format!(
            "Listen {}\nUser {}\nDocumentRoot {}\nLogFile {}\n",
            self.listen_port, self.server_user, self.document_root, self.log_file
        )
    }

    /// The document root used for pages added via [`WorldBuilder::page`].
    #[must_use]
    pub fn document_root(&self) -> &str {
        &self.document_root
    }

    /// Builds the kernel: creates all files, including `/etc/passwd` and
    /// `/etc/group` rendered from the configured users (one entry and one
    /// group of the same name per user), and — when a server user is
    /// configured — `/etc/httpd.conf` plus the (initially empty, root-only)
    /// log file, both reflecting the builder's current settings.
    #[must_use]
    pub fn build(&self) -> OsKernel {
        let mut kernel = OsKernel::new();
        let mut passwd = String::new();
        let mut group = String::new();
        for user in &self.users {
            passwd.push_str(&format!(
                "{}\n",
                PasswdEntry::new(&user.name, user.uid, user.gid)
            ));
            group.push_str(&format!("{}\n", GroupEntry::new(&user.name, user.gid)));
        }
        for (path, text) in [("/etc/passwd", passwd), ("/etc/group", group)] {
            kernel.fs_mut().create_with(
                path,
                text.into_bytes(),
                Uid::ROOT,
                Gid::ROOT,
                FileMode::PUBLIC,
            );
        }

        if !self.server_user.is_empty() {
            kernel.fs_mut().create_with(
                "/etc/httpd.conf",
                self.render_httpd_conf().into_bytes(),
                Uid::ROOT,
                Gid::ROOT,
                FileMode::PUBLIC,
            );
        }
        if !self.log_file.is_empty() {
            kernel.fs_mut().create_with(
                &self.log_file,
                Vec::new(),
                Uid::ROOT,
                Gid::ROOT,
                FileMode::PRIVATE,
            );
        }

        // Explicitly added files come last so callers can override any of
        // the rendered defaults above.
        for f in &self.files {
            kernel
                .fs_mut()
                .create_with(&f.path, f.data.clone(), f.owner, f.group, f.mode);
        }
        kernel
    }
}

/// A named, pre-built world a campaign can deploy compiled systems into:
/// the *environment axis* of the evaluation matrix.
///
/// The paper evaluates deployments against one fixed Apache environment;
/// related work on quantifying diversity effectiveness measures security as
/// a function of the environment as well as the variant set. A
/// `WorldTemplate` makes the environment an explicit, labelled coordinate:
/// the same compiled artifact can be provisioned into the standard world, a
/// world with different accounts, a different document root, or a
/// world with injected filesystem faults — and a campaign cell records which
/// one it ran in.
///
/// Templates are immutable once built; deployments clone the kernel, never
/// mutate the template.
///
/// # Example
///
/// ```
/// use nvariant_simos::{PasswdEntry, WorldTemplate};
///
/// let world = WorldTemplate::alternate_accounts();
/// assert_eq!(world.name(), "alt-accounts");
/// // The service account exists, but under a different UID than the
/// // standard world's 48.
/// let passwd = world.kernel().fs().get("/etc/passwd").unwrap();
/// let httpd = String::from_utf8_lossy(&passwd.data)
///     .lines()
///     .filter_map(PasswdEntry::parse)
///     .find(|entry| entry.name == "httpd")
///     .unwrap();
/// assert_eq!(httpd.uid.as_u32(), 61);
/// ```
#[derive(Clone, Debug)]
pub struct WorldTemplate {
    name: String,
    kernel: OsKernel,
}

impl WorldTemplate {
    /// Wraps an already-built kernel as a named template.
    #[must_use]
    pub fn new(name: impl Into<String>, kernel: OsKernel) -> Self {
        WorldTemplate {
            name: name.into(),
            kernel,
        }
    }

    /// Builds a template from a [`WorldBuilder`].
    #[must_use]
    pub fn from_builder(name: impl Into<String>, builder: &WorldBuilder) -> Self {
        WorldTemplate::new(name, builder.build())
    }

    /// The standard case-study world ([`WorldBuilder::standard`]).
    #[must_use]
    pub fn standard() -> Self {
        WorldTemplate::from_builder("standard", &WorldBuilder::standard())
    }

    /// The standard world layout with different accounts: the
    /// service account keeps its name (`/etc/httpd.conf` still says
    /// `User httpd`) but maps to UID 61 instead of 48, the ordinary user
    /// moves to UID 1500, and an extra `backup` system account exists.
    /// Exercises every UID-carrying path — passwd parsing, privilege drops,
    /// unshared per-variant account files — with concrete values that never
    /// appear in the standard world.
    #[must_use]
    pub fn alternate_accounts() -> Self {
        let builder = WorldBuilder::new()
            .user(UserSpec::new("root", 0, 0))
            .user(UserSpec::new("httpd", 61, 61))
            .user(UserSpec::new("alice", 1500, 150))
            .user(UserSpec::new("backup", 34, 34))
            .standard_shadow()
            .standard_pages();
        WorldTemplate::from_builder("alt-accounts", &builder)
    }

    /// The standard world with the document tree rooted at `/srv/webroot`
    /// instead of `/var/www/html` (same accounts, same page names, so the
    /// same workload mix applies; `/etc/httpd.conf` points the server at the
    /// new root).
    #[must_use]
    pub fn alternate_docroot() -> Self {
        let builder = WorldBuilder::new()
            .with_document_root("/srv/webroot")
            .user(UserSpec::new("root", 0, 0))
            .user(UserSpec::new("httpd", HTTPD_UID, HTTPD_UID))
            .user(UserSpec::new("alice", 1000, 100))
            .standard_shadow()
            .standard_pages();
        WorldTemplate::from_builder("alt-docroot", &builder)
    }

    /// The standard world with a deterministic filesystem fault injected:
    /// `news.html` sits on a bad sector, so every attempt to serve it fails
    /// with `EIO` (the server answers 404). The fault is shared kernel
    /// state, identical for every variant of a deployment, so it degrades
    /// service without ever inducing cross-variant divergence.
    #[must_use]
    pub fn faulty_fs() -> Self {
        let mut kernel = WorldBuilder::standard().build();
        kernel.fs_mut().inject_read_fault("/var/www/html/news.html");
        WorldTemplate::new("faulty-fs", kernel)
    }

    /// Every built-in world template, standard first — the full environment
    /// axis the report binaries sweep.
    #[must_use]
    pub fn catalogue() -> Vec<WorldTemplate> {
        vec![
            WorldTemplate::standard(),
            WorldTemplate::alternate_accounts(),
            WorldTemplate::alternate_docroot(),
            WorldTemplate::faulty_fs(),
        ]
    }

    /// The template's name (the label campaign cells record).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pre-built kernel deployments clone from.
    #[must_use]
    pub fn kernel(&self) -> &OsKernel {
        &self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::Credentials;
    use crate::fs::{AccessMode, OpenFlags};

    /// The lines of the world file at `path`.
    fn lines(kernel: &OsKernel, path: &str) -> Vec<String> {
        let file = kernel.fs().get(path).unwrap();
        let text = String::from_utf8(file.data.to_vec()).unwrap();
        text.lines().map(str::to_string).collect()
    }

    /// The `/etc/passwd` entry of the user `name`.
    fn user(kernel: &OsKernel, name: &str) -> Option<PasswdEntry> {
        let passwd = lines(kernel, "/etc/passwd");
        let mut entries = passwd.iter().filter_map(|line| PasswdEntry::parse(line));
        entries.find(|entry| entry.name == name)
    }

    #[test]
    fn standard_world_has_expected_accounts() {
        let kernel = WorldBuilder::standard().build();
        assert_eq!(user(&kernel, "root").unwrap().uid, Uid::ROOT);
        assert_eq!(user(&kernel, "httpd").unwrap().uid, Uid::new(HTTPD_UID));
        assert_eq!(user(&kernel, "alice").unwrap().uid, Uid::new(1000));
        let httpd = GroupEntry::new("httpd", Gid::new(HTTPD_UID));
        assert!(lines(&kernel, "/etc/group").contains(&httpd.render()));
    }

    #[test]
    fn server_settings_applied_after_standard_reach_the_rendered_conf() {
        let kernel = WorldBuilder::standard()
            .listen_port(8080)
            .log_file("/var/log/alt-httpd.log")
            .build();
        let conf = kernel.fs().get("/etc/httpd.conf").unwrap();
        let text = String::from_utf8(conf.data.to_vec()).unwrap();
        assert!(text.contains("Listen 8080"), "{text}");
        assert!(text.contains("LogFile /var/log/alt-httpd.log"), "{text}");
        assert!(kernel.fs().exists("/var/log/alt-httpd.log"));
        assert!(!kernel.fs().exists("/var/log/httpd.log"));
    }

    #[test]
    fn explicitly_added_files_override_the_rendered_defaults() {
        let kernel = WorldBuilder::standard()
            .file("/etc/httpd.conf", b"Listen 9999\n".to_vec())
            .build();
        let conf = kernel.fs().get("/etc/httpd.conf").unwrap();
        assert_eq!(conf.data, b"Listen 9999\n");
    }

    #[test]
    fn standard_world_files_exist_with_expected_protection() {
        let kernel = WorldBuilder::standard().build();
        assert!(kernel.fs().exists("/etc/passwd"));
        assert!(kernel.fs().exists("/etc/group"));
        assert!(kernel.fs().exists("/etc/httpd.conf"));
        assert!(kernel.fs().exists("/var/www/html/index.html"));
        assert!(kernel.fs().exists("/var/www/html/admin/status.html"));

        let www = Credentials::new(Uid::new(HTTPD_UID), Gid::new(HTTPD_UID));
        // Shadow and the log file are root-only.
        assert!(kernel
            .fs()
            .check_access("/etc/shadow", &www, AccessMode::Read)
            .is_err());
        assert!(kernel
            .fs()
            .check_access("/var/log/httpd.log", &www, AccessMode::Write)
            .is_err());
        // Pages and passwd are world readable.
        assert!(kernel
            .fs()
            .check_access("/var/www/html/index.html", &www, AccessMode::Read)
            .is_ok());
        assert!(kernel
            .fs()
            .check_access("/etc/passwd", &www, AccessMode::Read)
            .is_ok());
    }

    #[test]
    fn rendered_passwd_contains_httpd_line() {
        let kernel = WorldBuilder::standard().build();
        let passwd = kernel.fs().get("/etc/passwd").unwrap();
        let text = String::from_utf8(passwd.data.to_vec()).unwrap();
        assert!(text.contains("httpd:x:48:48:"));
        assert!(text.lines().count() >= 3);
    }

    #[test]
    fn custom_world_pages_and_users() {
        let kernel = WorldBuilder::new()
            .user(UserSpec::new("root", 0, 0))
            .user(UserSpec::new("svc", 200, 200))
            .page("custom.html", "<html>x</html>")
            .build();
        assert!(kernel.fs().exists("/var/www/html/custom.html"));
        assert_eq!(user(&kernel, "svc").unwrap().uid, Uid::new(200));
    }

    #[test]
    fn built_kernel_supports_end_to_end_privileged_open() {
        let mut kernel = WorldBuilder::standard().build();
        let root = kernel.spawn_process(Uid::ROOT);
        assert!(kernel.open(root, "/etc/shadow", OpenFlags::RDONLY).is_ok());
        let www = kernel.spawn_process(Uid::new(HTTPD_UID));
        assert!(kernel.open(www, "/etc/shadow", OpenFlags::RDONLY).is_err());
    }

    #[test]
    fn world_template_catalogue_is_distinctly_labelled() {
        let catalogue = WorldTemplate::catalogue();
        assert_eq!(catalogue.len(), 4);
        let names: Vec<&str> = catalogue.iter().map(WorldTemplate::name).collect();
        assert_eq!(
            names,
            vec!["standard", "alt-accounts", "alt-docroot", "faulty-fs"]
        );
        // Every world serves the same page names and keeps the shadow prize.
        for world in &catalogue {
            let conf = world.kernel().fs().get("/etc/httpd.conf").unwrap();
            let text = String::from_utf8(conf.data.to_vec()).unwrap();
            let docroot = text
                .lines()
                .find_map(|l| l.strip_prefix("DocumentRoot "))
                .unwrap();
            assert!(
                world.kernel().fs().exists(&format!("{docroot}/index.html")),
                "{}",
                world.name()
            );
            assert!(
                world.kernel().fs().exists("/etc/shadow"),
                "{}",
                world.name()
            );
        }
    }

    #[test]
    fn alternate_docroot_moves_the_page_tree() {
        let world = WorldTemplate::alternate_docroot();
        assert!(world.kernel().fs().exists("/srv/webroot/index.html"));
        assert!(!world.kernel().fs().exists("/var/www/html/index.html"));
        let conf = world.kernel().fs().get("/etc/httpd.conf").unwrap();
        assert!(String::from_utf8_lossy(&conf.data).contains("DocumentRoot /srv/webroot"));
    }

    #[test]
    fn faulty_fs_world_injects_a_read_fault() {
        let world = WorldTemplate::faulty_fs();
        assert!(world
            .kernel()
            .fs()
            .is_read_faulty("/var/www/html/news.html"));
        // Only the faulted page is affected.
        assert!(!world
            .kernel()
            .fs()
            .is_read_faulty("/var/www/html/index.html"));
    }

    #[test]
    fn page_sizes_form_a_mix() {
        let kernel = WorldBuilder::standard().build();
        let small = kernel.fs().get("/var/www/html/contact.html").unwrap().len();
        let large = kernel.fs().get("/var/www/html/news.html").unwrap().len();
        assert!(large > 4 * small);
    }
}
