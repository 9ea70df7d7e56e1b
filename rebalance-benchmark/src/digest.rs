//! The correctness guard: a digest of each run's `--json` results
//! checked against committed values, and a listing of the warm cache
//! that a timed run must leave untouched.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::time::SystemTime;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Holds accounting (cache hits, bytes read), not results, so it is
/// left out of the digest.
const ACCOUNTING_FILE: &str = "report.json";

/// FNV-1a 64 over every file of a `--json` output directory in name
/// order, each as its name, a NUL, its bytes and a NUL, leaving out
/// `report.json`.
///
/// # Errors
///
/// An unreadable directory or file.
pub fn result_digest(dir: &Path) -> io::Result<u64> {
    let mut names = fs::read_dir(dir)?
        .map(|entry| entry.map(|e| e.file_name().to_string_lossy().into_owned()))
        .collect::<io::Result<Vec<_>>>()?;
    names.retain(|name| name != ACCOUNTING_FILE);
    names.sort();
    let mut hash = FNV_OFFSET;
    for name in &names {
        hash = fnv1a(hash, name.as_bytes());
        hash = fnv1a(hash, &[0]);
        hash = fnv1a(hash, &fs::read(dir.join(name))?);
        hash = fnv1a(hash, &[0]);
    }
    Ok(hash)
}

/// Name, size and modification time of every file in a cache
/// directory, in name order.
pub type CacheListing = Vec<(String, u64, SystemTime)>;

/// Lists `dir` for [`CacheListing`] comparison.
///
/// # Errors
///
/// An unreadable directory or entry.
pub fn cache_listing(dir: &Path) -> io::Result<CacheListing> {
    let mut listing = fs::read_dir(dir)?
        .map(|entry| {
            let entry = entry?;
            let meta = entry.metadata()?;
            Ok((
                entry.file_name().to_string_lossy().into_owned(),
                meta.len(),
                meta.modified()?,
            ))
        })
        .collect::<io::Result<CacheListing>>()?;
    listing.sort();
    Ok(listing)
}

/// Committed digests, keyed by workload name and input set.
pub type Expected = BTreeMap<(String, u32), u64>;

/// Parses `expected_digests.txt`: one `<workload> <input-set> <hex>`
/// line per entry; blank lines and `#` comments are ignored.
///
/// # Errors
///
/// The first malformed line.
pub fn parse_expected(text: &str) -> Result<Expected, String> {
    let mut expected = Expected::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let parsed = match fields[..] {
            [name, set, hex] => set
                .parse()
                .ok()
                .zip(u64::from_str_radix(hex, 16).ok())
                .map(|(set, digest)| ((name.to_owned(), set), digest)),
            _ => None,
        };
        let (key, digest) =
            parsed.ok_or_else(|| format!("expected_digests.txt:{}: malformed `{line}`", i + 1))?;
        expected.insert(key, digest);
    }
    Ok(expected)
}

/// Renders digests in the format [`parse_expected`] reads.
pub fn render_expected(expected: &Expected) -> String {
    let mut text = String::from(
        "# Result digest per (workload, input set): FNV-1a 64 over the --json\n\
         # outputs, report.json excluded. Rewrite with `rebalance-benchmark --bless`.\n",
    );
    for ((name, set), digest) in expected {
        text.push_str(&format!("{name} {set} {digest:016x}\n"));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rebalance-benchmark-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn digest_covers_names_and_bytes_in_name_order_without_report() {
        let dir = scratch_dir("digest");
        // Written out of name order: the digest must not depend on it.
        fs::write(dir.join("b.json"), "{\"y\": 2}").unwrap();
        fs::write(dir.join("a.json"), "{\"x\": 1}").unwrap();
        let mut manual = FNV_OFFSET;
        for (name, body) in [("a.json", "{\"x\": 1}"), ("b.json", "{\"y\": 2}")] {
            manual = fnv1a(manual, name.as_bytes());
            manual = fnv1a(manual, &[0]);
            manual = fnv1a(manual, body.as_bytes());
            manual = fnv1a(manual, &[0]);
        }
        let digest = result_digest(&dir).unwrap();
        assert_eq!(digest, manual);

        fs::write(dir.join("report.json"), "{\"hits\": 47}").unwrap();
        assert_eq!(
            result_digest(&dir).unwrap(),
            digest,
            "report.json is excluded"
        );

        fs::rename(dir.join("b.json"), dir.join("c.json")).unwrap();
        assert_ne!(result_digest(&dir).unwrap(), digest, "names are covered");
        fs::write(dir.join("c.json"), "{\"y\": 3}").unwrap();
        fs::rename(dir.join("c.json"), dir.join("b.json")).unwrap();
        assert_ne!(result_digest(&dir).unwrap(), digest, "bytes are covered");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_listing_sees_new_and_resized_files() {
        let dir = scratch_dir("listing");
        fs::write(dir.join("a.rbts"), "aaaa").unwrap();
        let before = cache_listing(&dir).unwrap();
        assert_eq!(cache_listing(&dir).unwrap(), before);
        fs::write(dir.join("b.rbts"), "b").unwrap();
        assert_ne!(cache_listing(&dir).unwrap(), before);
        fs::remove_file(dir.join("b.rbts")).unwrap();
        fs::write(dir.join("a.rbts"), "aaaaaaaa").unwrap();
        assert_ne!(cache_listing(&dir).unwrap(), before);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn expected_digests_round_trip() {
        let mut expected = Expected::new();
        expected.insert(("paper".to_owned(), 0), 0x0123_4567_89ab_cdef);
        expected.insert(("fetch_grid".to_owned(), 3), 7);
        assert_eq!(
            parse_expected(&render_expected(&expected)).unwrap(),
            expected
        );
        assert!(parse_expected("paper 0").is_err());
        assert!(parse_expected("paper x 12").is_err());
        assert!(parse_expected("paper 0 zz").is_err());
    }
}
