//! The `/etc/passwd` and `/etc/group` formats.
//!
//! These files are the *trusted external data* of the paper's UID variation
//! (§3.4): the server maps its configured user name (e.g. `User httpd`) to a
//! UID by parsing `/etc/passwd`. For the data variation to preserve normal
//! equivalence, each variant must see a copy of the file whose UID columns
//! have been transformed with that variant's reexpression function — the
//! *unshared files* mechanism. This module parses and renders single
//! entries, and reexpresses a whole file line by line
//! ([`reexpress_passwd`], [`reexpress_group`]).
//!
//! The world's own files are the only place the accounts live: each
//! variant's copy is a reexpression of the bytes the program would read,
//! with nothing memoised beside them, so a world clone copies, and a
//! checker state digests, only what programs can observe.

use nvariant_types::{Gid, Uid};
use std::fmt;

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
#[derive(Clone, Debug, PartialEq, Eq)]
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
#[derive(Clone, Debug, PartialEq, Eq)]
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

/// Reexpresses the text of an `/etc/passwd` file line by line: each line
/// that parses as a [`PasswdEntry`] is rendered again with its UID **and
/// GID** columns mapped through `map`, and any other line, UTF-8 or not, is
/// copied unchanged. This generates the unshared per-variant files
/// (`/etc/passwd-0`, `/etc/passwd-1`) from the world's own file.
///
/// The paper treats GID values as part of the UID data class (§3), so the
/// same mapping is applied to both columns.
///
/// # Example
///
/// ```
/// use nvariant_simos::reexpress_passwd;
///
/// let world = b"httpd:x:48:48::/var/www:/sbin/nologin\n";
/// let variant1 = reexpress_passwd(world, |id| id ^ 0x7FFF_FFFF);
/// let expected = format!("httpd:x:{0}:{0}::/var/www:/sbin/nologin\n", 48u32 ^ 0x7FFF_FFFF);
/// assert_eq!(variant1, expected.into_bytes());
/// ```
#[must_use]
pub fn reexpress_passwd(text: &[u8], map: impl Fn(u32) -> u32) -> Vec<u8> {
    reexpress_lines(text, |line| {
        let mut entry = PasswdEntry::parse(line)?;
        entry.uid = Uid::new(map(entry.uid.as_u32()));
        entry.gid = Gid::new(map(entry.gid.as_u32()));
        Some(entry.render())
    })
}

/// Reexpresses the text of an `/etc/group` file line by line, as
/// [`reexpress_passwd`] does, mapping each entry's GID column.
#[must_use]
pub fn reexpress_group(text: &[u8], map: impl Fn(u32) -> u32) -> Vec<u8> {
    reexpress_lines(text, |line| {
        let mut entry = GroupEntry::parse(line)?;
        entry.gid = Gid::new(map(entry.gid.as_u32()));
        Some(entry.render())
    })
}

/// `text` with each `\n`-terminated line (and a last line without one)
/// replaced by what `rewrite` makes of it, or kept as it is where the line
/// is not UTF-8 or `rewrite` returns `None`.
fn reexpress_lines(text: &[u8], rewrite: impl Fn(&str) -> Option<String>) -> Vec<u8> {
    let mut out = Vec::with_capacity(text.len());
    for chunk in text.split_inclusive(|&byte| byte == b'\n') {
        let line = chunk.strip_suffix(b"\n").unwrap_or(chunk);
        match std::str::from_utf8(line).ok().and_then(&rewrite) {
            Some(rewritten) => {
                out.extend_from_slice(rewritten.as_bytes());
                out.extend_from_slice(&chunk[line.len()..]);
            }
            None => out.extend_from_slice(chunk),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_PASSWD: &[u8] = b"root:x:0:0::/home/root:/bin/sh\n\
        httpd:x:48:48::/home/httpd:/bin/sh\n\
        alice:x:1000:100::/home/alice:/bin/sh\n";
    const SAMPLE_GROUP: &[u8] = b"root:x:0:\nhttpd:x:48:\n";
    const MASK: u32 = 0x7FFF_FFFF;

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

    fn parse_passwd(text: &[u8]) -> Vec<PasswdEntry> {
        let text = std::str::from_utf8(text).unwrap();
        text.lines()
            .map(|line| PasswdEntry::parse(line).unwrap())
            .collect()
    }

    #[test]
    fn render_passwd_identity_round_trips_through_parse() {
        assert_eq!(reexpress_passwd(SAMPLE_PASSWD, |id| id), SAMPLE_PASSWD);
        assert_eq!(reexpress_group(SAMPLE_GROUP, |id| id), SAMPLE_GROUP);
        let parsed = parse_passwd(SAMPLE_PASSWD);
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[1].name, "httpd");
        assert_eq!(parsed[1].uid, Uid::new(48));
    }

    #[test]
    fn render_passwd_with_mask_transforms_uid_and_gid() {
        let parsed = parse_passwd(&reexpress_passwd(SAMPLE_PASSWD, |id| id ^ MASK));
        let httpd = parsed.iter().find(|e| e.name == "httpd").unwrap();
        assert_eq!(httpd.uid.as_u32(), 48 ^ MASK);
        assert_eq!(httpd.gid.as_u32(), 48 ^ MASK);
        // root's transformed UID is the mask itself, matching §3.2 of the
        // paper: "0x7FFFFFFF represents root".
        let root = parsed.iter().find(|e| e.name == "root").unwrap();
        assert_eq!(root.uid.as_u32(), MASK);
        let alice = parsed.iter().find(|e| e.name == "alice").unwrap();
        assert_eq!(alice.gid.as_u32(), 100 ^ MASK);
    }

    #[test]
    fn render_group_with_mask() {
        let text = reexpress_group(SAMPLE_GROUP, |id| id ^ MASK);
        let expected = format!("root:x:{MASK}:\nhttpd:x:{}:\n", 48 ^ MASK);
        assert_eq!(text, expected.into_bytes());
    }

    #[test]
    fn lines_that_are_not_entries_are_copied_unchanged() {
        // A comment, a line with too few fields, a non-numeric UID, an
        // empty line and a line that is not UTF-8 stay as they are; the
        // entries between them, the last one without its newline, are
        // reexpressed.
        let text = b"# accounts\nshort:x\nbad:x:nan:1:::\n\nhttpd:x:48:48:::\n\xff\xfe:x:1:1:::\nlast:x:7:7:::";
        let passwd = reexpress_passwd(text, |id| id ^ MASK);
        let mut want = b"# accounts\nshort:x\nbad:x:nan:1:::\n\n".to_vec();
        want.extend_from_slice(format!("httpd:x:{0}:{0}:::\n", 48 ^ MASK).as_bytes());
        want.extend_from_slice(b"\xff\xfe:x:1:1:::\n");
        want.extend_from_slice(format!("last:x:{0}:{0}:::", 7 ^ MASK).as_bytes());
        assert_eq!(passwd, want);

        let group = reexpress_group(b"wheel:x:10:alice\n\xc3:x:1:\nbroken\r\n", |id| id ^ MASK);
        let mut want = format!("wheel:x:{}:alice\n", 10 ^ MASK).into_bytes();
        want.extend_from_slice(b"\xc3:x:1:\nbroken\r\n");
        assert_eq!(group, want);
    }

    #[test]
    fn an_empty_file_reexpresses_as_an_empty_one() {
        assert!(reexpress_passwd(b"", |id| id ^ MASK).is_empty());
        assert!(reexpress_group(b"", |id| id ^ MASK).is_empty());
    }

    #[test]
    fn display_matches_render() {
        let e = PasswdEntry::new("svc", Uid::new(7), Gid::new(7));
        assert_eq!(format!("{e}"), e.render());
        let g = GroupEntry::new("svc", Gid::new(7));
        assert_eq!(format!("{g}"), g.render());
    }
}
