//! The `/etc/passwd` and `/etc/group` databases.
//!
//! These files are the *trusted external data* of the paper's UID variation
//! (§3.4): the server maps its configured user name (e.g. `User httpd`) to a
//! UID by parsing `/etc/passwd`. For the data variation to preserve normal
//! equivalence, each variant must see a copy of the file whose UID columns
//! have been transformed with that variant's reexpression function — the
//! *unshared files* mechanism. This module provides parsing, rendering, and
//! UID-mapping helpers used to generate those per-variant files.
//!
//! The kernel holds one [`PasswdDb`], which every world clone and every
//! model-checker state copies and digests. The database is therefore shared
//! copy-on-write, like a file's contents: a clone bumps a reference count,
//! and the first [`add_user`](PasswdDb::add_user) or
//! [`add_group`](PasswdDb::add_group) on a shared copy detaches it. The
//! digest of its canonical renderings is computed once per generation and
//! shared by every clone that has not written since, so a state digest
//! folds the accounts as one `u64`.

use nvariant_types::{Fnv1a, Gid, Uid};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One line of `/etc/passwd`.
///
/// # Example
///
/// ```
/// use nvariant_simos::PasswdEntry;
///
/// let entry = PasswdEntry::parse("httpd:x:48:48:Apache:/var/www:/sbin/nologin").unwrap();
/// assert_eq!(entry.name, "httpd");
/// assert_eq!(entry.uid.as_u32(), 48);
/// assert_eq!(entry.render(), "httpd:x:48:48:Apache:/var/www:/sbin/nologin");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PasswdEntry {
    /// Login name.
    pub name: String,
    /// Password field (always `"x"` in this simulation).
    pub password: String,
    /// User ID.
    pub uid: Uid,
    /// Primary group ID.
    pub gid: Gid,
    /// GECOS / comment field.
    pub gecos: String,
    /// Home directory.
    pub home: String,
    /// Login shell.
    pub shell: String,
}

impl PasswdEntry {
    /// Creates an entry with conventional defaults for the simulation.
    #[must_use]
    pub fn new(name: &str, uid: Uid, gid: Gid) -> Self {
        PasswdEntry {
            name: name.to_string(),
            password: "x".to_string(),
            uid,
            gid,
            gecos: String::new(),
            home: format!("/home/{name}"),
            shell: "/bin/sh".to_string(),
        }
    }

    /// Parses one `passwd(5)` line.
    ///
    /// Returns `None` if the line does not have seven `:`-separated fields or
    /// the UID/GID columns are not numeric.
    #[must_use]
    pub fn parse(line: &str) -> Option<Self> {
        let fields: Vec<&str> = line.split(':').collect();
        if fields.len() != 7 {
            return None;
        }
        Some(PasswdEntry {
            name: fields[0].to_string(),
            password: fields[1].to_string(),
            uid: Uid::new(fields[2].parse().ok()?),
            gid: Gid::new(fields[3].parse().ok()?),
            gecos: fields[4].to_string(),
            home: fields[5].to_string(),
            shell: fields[6].to_string(),
        })
    }

    /// Renders the entry back into `passwd(5)` format.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}:{}:{}",
            self.name,
            self.password,
            self.uid.as_u32(),
            self.gid.as_u32(),
            self.gecos,
            self.home,
            self.shell
        )
    }
}

impl fmt::Display for PasswdEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// One line of `/etc/group`.
///
/// # Example
///
/// ```
/// use nvariant_simos::GroupEntry;
///
/// let entry = GroupEntry::parse("wheel:x:10:alice,bob").unwrap();
/// assert_eq!(entry.members, vec!["alice", "bob"]);
/// assert_eq!(entry.render(), "wheel:x:10:alice,bob");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupEntry {
    /// Group name.
    pub name: String,
    /// Password field (always `"x"`).
    pub password: String,
    /// Group ID.
    pub gid: Gid,
    /// Member login names.
    pub members: Vec<String>,
}

impl GroupEntry {
    /// Creates a group entry with no members.
    #[must_use]
    pub fn new(name: &str, gid: Gid) -> Self {
        GroupEntry {
            name: name.to_string(),
            password: "x".to_string(),
            gid,
            members: Vec::new(),
        }
    }

    /// Parses one `group(5)` line.
    #[must_use]
    pub fn parse(line: &str) -> Option<Self> {
        let fields: Vec<&str> = line.split(':').collect();
        if fields.len() != 4 {
            return None;
        }
        Some(GroupEntry {
            name: fields[0].to_string(),
            password: fields[1].to_string(),
            gid: Gid::new(fields[2].parse().ok()?),
            members: if fields[3].is_empty() {
                Vec::new()
            } else {
                fields[3].split(',').map(str::to_string).collect()
            },
        })
    }

    /// Renders the entry back into `group(5)` format.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}:{}",
            self.name,
            self.password,
            self.gid.as_u32(),
            self.members.join(",")
        )
    }
}

impl fmt::Display for GroupEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The combined user/group account database, shared copy-on-write with a
/// memoised digest (see the module docs).
///
/// # Example
///
/// ```
/// use nvariant_simos::{PasswdDb, PasswdEntry};
/// use nvariant_types::{Gid, Uid};
///
/// let mut db = PasswdDb::new();
/// db.add_user(PasswdEntry::new("httpd", Uid::new(48), Gid::new(48)));
/// assert_eq!(db.lookup_user("httpd").unwrap().uid, Uid::new(48));
///
/// // Generate the per-variant file for the UID variation (R1 = XOR mask).
/// let variant1 = db.render_passwd_with(|uid| Uid::new(uid.as_u32() ^ 0x7FFF_FFFF));
/// assert!(variant1.contains(&format!("{}", 48u32 ^ 0x7FFF_FFFF)));
/// ```
#[derive(Clone, Default)]
pub struct PasswdDb(Arc<Accounts>);

#[derive(Clone, Default)]
struct Accounts {
    users: Vec<PasswdEntry>,
    groups: Vec<GroupEntry>,
    /// The FNV-1a of the canonical `passwd` and `group` renderings, once
    /// something has asked for it.
    digest: OnceLock<u64>,
}

impl PasswdDb {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> Self {
        PasswdDb::default()
    }

    /// The entries for writing: detached from any sharing clones, with the
    /// memoised digest reset.
    fn accounts_mut(&mut self) -> &mut Accounts {
        let accounts = Arc::make_mut(&mut self.0);
        accounts.digest = OnceLock::new();
        accounts
    }

    /// Adds a user entry.
    pub fn add_user(&mut self, entry: PasswdEntry) {
        self.accounts_mut().users.push(entry);
    }

    /// Adds a group entry.
    pub fn add_group(&mut self, entry: GroupEntry) {
        self.accounts_mut().groups.push(entry);
    }

    /// Looks up a user by login name.
    #[must_use]
    pub fn lookup_user(&self, name: &str) -> Option<&PasswdEntry> {
        self.0.users.iter().find(|u| u.name == name)
    }

    /// Looks up a user by UID.
    #[must_use]
    pub fn lookup_uid(&self, uid: Uid) -> Option<&PasswdEntry> {
        self.0.users.iter().find(|u| u.uid == uid)
    }

    /// Looks up a group by name.
    #[must_use]
    pub fn lookup_group(&self, name: &str) -> Option<&GroupEntry> {
        self.0.groups.iter().find(|g| g.name == name)
    }

    /// Iterates over all user entries.
    pub fn users(&self) -> impl Iterator<Item = &PasswdEntry> {
        self.0.users.iter()
    }

    /// Iterates over all group entries.
    pub fn groups(&self) -> impl Iterator<Item = &GroupEntry> {
        self.0.groups.iter()
    }

    /// Parses a full `/etc/passwd` file.
    #[must_use]
    pub fn parse_passwd(text: &str) -> Vec<PasswdEntry> {
        text.lines().filter_map(PasswdEntry::parse).collect()
    }

    /// Parses a full `/etc/group` file.
    #[must_use]
    pub fn parse_group(text: &str) -> Vec<GroupEntry> {
        text.lines().filter_map(GroupEntry::parse).collect()
    }

    /// Renders the canonical `/etc/passwd` contents.
    #[must_use]
    pub fn render_passwd(&self) -> String {
        self.render_passwd_with(|uid| uid)
    }

    /// Renders `/etc/passwd` with every UID **and GID** column transformed by
    /// `map` — the primitive used to generate the unshared per-variant files
    /// (`/etc/passwd-0`, `/etc/passwd-1`).
    ///
    /// The paper treats GID values as part of the UID data class (§3), so the
    /// same mapping is applied to both columns.
    #[must_use]
    pub fn render_passwd_with(&self, map: impl Fn(Uid) -> Uid) -> String {
        let mut out = String::new();
        for user in &self.0.users {
            let mut entry = user.clone();
            entry.uid = map(user.uid);
            entry.gid = Gid::new(map(Uid::new(user.gid.as_u32())).as_u32());
            out.push_str(&entry.render());
            out.push('\n');
        }
        out
    }

    /// Renders the canonical `/etc/group` contents.
    #[must_use]
    pub fn render_group(&self) -> String {
        self.render_group_with(|gid| gid)
    }

    /// Renders `/etc/group` with every GID column transformed by `map`.
    #[must_use]
    pub fn render_group_with(&self, map: impl Fn(Gid) -> Gid) -> String {
        let mut out = String::new();
        for group in &self.0.groups {
            let mut entry = group.clone();
            entry.gid = map(group.gid);
            out.push_str(&entry.render());
            out.push('\n');
        }
        out
    }

    /// Folds the complete account database into `digest` as one `u64`: the
    /// FNV-1a of the canonical `passwd(5)`/`group(5)` renderings (which
    /// cover every field of every entry, in insertion order), computed once
    /// per write generation and shared by every clone that has not written
    /// since.
    pub fn digest_into(&self, digest: &mut Fnv1a) {
        let accounts = *self.0.digest.get_or_init(|| {
            let mut accounts = Fnv1a::new();
            accounts.write_str(&self.render_passwd());
            accounts.write_str(&self.render_group());
            accounts.finish()
        });
        digest.write_u64(accounts);
    }
}

// Debug output and equality see only the entries: the memo is a cache, and
// whether it has been filled yet is not part of the database.
impl fmt::Debug for PasswdDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PasswdDb")
            .field("users", &self.0.users)
            .field("groups", &self.0.groups)
            .finish()
    }
}

impl PartialEq for PasswdDb {
    fn eq(&self, other: &PasswdDb) -> bool {
        self.0.users == other.0.users && self.0.groups == other.0.groups
    }
}

impl Eq for PasswdDb {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> PasswdDb {
        let mut db = PasswdDb::new();
        db.add_user(PasswdEntry::new("root", Uid::ROOT, Gid::ROOT));
        db.add_user(PasswdEntry::new("httpd", Uid::new(48), Gid::new(48)));
        db.add_user(PasswdEntry::new("alice", Uid::new(1000), Gid::new(100)));
        db.add_group(GroupEntry::new("root", Gid::ROOT));
        db.add_group(GroupEntry::new("httpd", Gid::new(48)));
        db
    }

    #[test]
    fn parse_render_round_trip() {
        let line = "httpd:x:48:48:Apache HTTP Server:/var/www:/sbin/nologin";
        let entry = PasswdEntry::parse(line).unwrap();
        assert_eq!(entry.render(), line);
        assert_eq!(entry.uid, Uid::new(48));
        assert_eq!(entry.gid, Gid::new(48));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(PasswdEntry::parse("too:few:fields").is_none());
        assert!(PasswdEntry::parse("name:x:notanumber:48:::").is_none());
        assert!(GroupEntry::parse("a:b:c").is_none());
        assert!(GroupEntry::parse("g:x:nan:").is_none());
    }

    #[test]
    fn group_members_parse_and_render() {
        let g = GroupEntry::parse("wheel:x:10:alice,bob").unwrap();
        assert_eq!(g.members, vec!["alice".to_string(), "bob".to_string()]);
        assert_eq!(g.render(), "wheel:x:10:alice,bob");
        let empty = GroupEntry::parse("nobody:x:99:").unwrap();
        assert!(empty.members.is_empty());
        assert_eq!(empty.render(), "nobody:x:99:");
    }

    #[test]
    fn lookups() {
        let db = sample_db();
        assert_eq!(db.lookup_user("httpd").unwrap().uid, Uid::new(48));
        assert_eq!(db.lookup_uid(Uid::new(1000)).unwrap().name, "alice");
        assert!(db.lookup_user("mallory").is_none());
        assert_eq!(db.lookup_group("httpd").unwrap().gid, Gid::new(48));
        assert_eq!(db.users().count(), 3);
        assert_eq!(db.groups().count(), 2);
    }

    #[test]
    fn render_passwd_identity_round_trips_through_parse() {
        let db = sample_db();
        let text = db.render_passwd();
        let parsed = PasswdDb::parse_passwd(&text);
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[1].name, "httpd");
        assert_eq!(parsed[1].uid, Uid::new(48));
    }

    #[test]
    fn render_passwd_with_mask_transforms_uid_and_gid() {
        let db = sample_db();
        let mask = 0x7FFF_FFFFu32;
        let text = db.render_passwd_with(|u| Uid::new(u.as_u32() ^ mask));
        let parsed = PasswdDb::parse_passwd(&text);
        let httpd = parsed.iter().find(|e| e.name == "httpd").unwrap();
        assert_eq!(httpd.uid.as_u32(), 48 ^ mask);
        assert_eq!(httpd.gid.as_u32(), 48 ^ mask);
        // root's transformed UID is the mask itself, matching §3.2 of the
        // paper: "0x7FFFFFFF represents root".
        let root = parsed.iter().find(|e| e.name == "root").unwrap();
        assert_eq!(root.uid.as_u32(), mask);
    }

    #[test]
    fn render_group_with_mask() {
        let db = sample_db();
        let text = db.render_group_with(|g| Gid::new(g.as_u32() ^ 0x7FFF_FFFF));
        let parsed = PasswdDb::parse_group(&text);
        assert_eq!(parsed[1].gid.as_u32(), 48 ^ 0x7FFF_FFFF);
    }

    fn digest(db: &PasswdDb) -> u64 {
        let mut digest = Fnv1a::new();
        db.digest_into(&mut digest);
        digest.finish()
    }

    #[test]
    fn a_clone_shares_the_database() {
        let db = sample_db();
        let expected = digest(&db);
        let copy = db.clone();
        assert!(Arc::ptr_eq(&db.0, &copy.0));
        // The copy reads the memo the original filled.
        assert!(copy.0.digest.get().is_some());
        assert_eq!(digest(&copy), expected);
    }

    #[test]
    fn a_write_after_a_clone_detaches_only_the_writer() {
        let db = sample_db();
        let before = digest(&db);
        let mut writer = db.clone();
        writer.add_user(PasswdEntry::new("bob", Uid::new(1001), Gid::new(100)));
        assert!(!Arc::ptr_eq(&db.0, &writer.0));
        assert_eq!(digest(&db), before);
        assert_eq!(db.users().count(), 3);
        assert_ne!(digest(&writer), before);
        assert_eq!(writer.users().count(), 4);

        let mut grouped = db.clone();
        grouped.add_group(GroupEntry::new("staff", Gid::new(100)));
        assert_eq!(digest(&db), before);
        assert_ne!(digest(&grouped), before);
        assert_ne!(digest(&grouped), digest(&writer));
    }

    #[test]
    fn equal_databases_built_apart_digest_equally() {
        let first = sample_db();
        let second = sample_db();
        assert!(!Arc::ptr_eq(&first.0, &second.0));
        assert_eq!(first, second);
        assert_eq!(digest(&first), digest(&second));
        // The memo is invisible to equality and to debug output.
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
        assert_ne!(digest(&first), digest(&PasswdDb::new()));
    }

    #[test]
    fn the_digest_folds_the_canonical_renderings() {
        let db = sample_db();
        let mut accounts = Fnv1a::new();
        accounts.write_str(&db.render_passwd());
        accounts.write_str(&db.render_group());
        let mut expected = Fnv1a::new();
        expected.write_u64(accounts.finish());
        assert_eq!(digest(&db), expected.finish());
    }

    #[test]
    fn display_matches_render() {
        let e = PasswdEntry::new("svc", Uid::new(7), Gid::new(7));
        assert_eq!(format!("{e}"), e.render());
        let g = GroupEntry::new("svc", Gid::new(7));
        assert_eq!(format!("{g}"), g.render());
    }
}
