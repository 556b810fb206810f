//! Standard (key-based) blocking: records agreeing on a blocking-key value
//! form a block, and all cross pairs within a block become candidates.

use std::collections::HashMap;

use transer_common::Record;

use crate::CandidatePair;

/// Key-based blocker; the key function typically concatenates encoded
/// attribute prefixes (e.g. Soundex of the surname + birth year).
pub struct StandardBlocking<F>
where
    F: Fn(&Record) -> Vec<String>,
{
    key_fn: F,
}

impl<F> StandardBlocking<F>
where
    F: Fn(&Record) -> Vec<String>,
{
    /// Create a blocker from a key function. A record may emit several keys
    /// (multi-pass blocking); records emitting no keys are never paired.
    pub fn new(key_fn: F) -> Self {
        StandardBlocking { key_fn }
    }

    /// Candidate pairs for linking two databases, sorted and deduplicated.
    pub fn candidate_pairs(&self, left: &[Record], right: &[Record]) -> Vec<CandidatePair> {
        let mut blocks: HashMap<String, Vec<u32>> = HashMap::new();
        for (i, rec) in left.iter().enumerate() {
            for key in (self.key_fn)(rec) {
                blocks.entry(key).or_default().push(i as u32);
            }
        }
        let mut pairs = Vec::new();
        for (j, rec) in right.iter().enumerate() {
            for key in (self.key_fn)(rec) {
                if let Some(lefts) = blocks.get(&key) {
                    pairs.extend(lefts.iter().map(|&i| (i as usize, j)));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        apply_blocking_fault(&mut pairs);
        transer_trace::counter("blocking.passes", 1);
        transer_trace::counter("blocking.standard.candidates", pairs.len() as u64);
        pairs
    }

    /// Candidate pairs within one database (`i < j`), sorted, deduplicated.
    pub fn candidate_pairs_dedup(&self, records: &[Record]) -> Vec<CandidatePair> {
        let mut blocks: HashMap<String, Vec<u32>> = HashMap::new();
        for (i, rec) in records.iter().enumerate() {
            for key in (self.key_fn)(rec) {
                blocks.entry(key).or_default().push(i as u32);
            }
        }
        let mut pairs = Vec::new();
        for members in blocks.values() {
            for (a, &i) in members.iter().enumerate() {
                for &j in &members[a + 1..] {
                    pairs.push((i.min(j) as usize, i.max(j) as usize));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        apply_blocking_fault(&mut pairs);
        transer_trace::counter("blocking.passes", 1);
        transer_trace::counter("blocking.standard.candidates", pairs.len() as u64);
        pairs
    }
}

/// The `blocking` fault site: an armed `empty` or `task_fail` plan drops
/// every candidate pair (blocking has no float or label payload to poison,
/// so the other kinds are no-ops here). Downstream phases must then cope
/// with an empty comparison set.
fn apply_blocking_fault(pairs: &mut Vec<CandidatePair>) {
    use transer_robust::FaultKind;
    if let Some(FaultKind::Empty | FaultKind::TaskFail) =
        transer_robust::fired(transer_robust::site::BLOCKING)
    {
        pairs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transer_common::AttrValue;
    use transer_similarity::soundex;

    fn rec(id: u64, name: &str) -> Record {
        Record::new(id, id, vec![AttrValue::Text(name.into())])
    }

    fn surname_soundex(r: &Record) -> Vec<String> {
        r.values[0].as_text().map(|s| vec![soundex(s)]).unwrap_or_default()
    }

    #[test]
    fn groups_phonetically_equal_names() {
        let left = vec![rec(0, "smith"), rec(1, "jones")];
        let right = vec![rec(0, "smyth"), rec(1, "johnson")];
        let b = StandardBlocking::new(surname_soundex);
        let pairs = b.candidate_pairs(&left, &right);
        assert!(pairs.contains(&(0, 0)));
        assert!(!pairs.contains(&(1, 1))); // jones J520 vs johnson J525
    }

    #[test]
    fn multi_key_blocking_unions_blocks() {
        let key = |r: &Record| {
            let s = r.values[0].as_text().unwrap_or("");
            vec![s[..1.min(s.len())].to_string(), format!("len{}", s.len())]
        };
        let left = vec![rec(0, "abc")];
        let right = vec![rec(0, "axe"), rec(1, "zzz")];
        let b = StandardBlocking::new(key);
        let pairs = b.candidate_pairs(&left, &right);
        assert!(pairs.contains(&(0, 0))); // shares prefix "a"
        assert!(pairs.contains(&(0, 1))); // shares "len3"
    }

    #[test]
    fn dedup_pairs_ordered() {
        let recs = vec![rec(0, "smith"), rec(1, "smyth"), rec(2, "smith")];
        let b = StandardBlocking::new(surname_soundex);
        let pairs = b.candidate_pairs_dedup(&recs);
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn keyless_records_never_pair() {
        let b = StandardBlocking::new(|_r: &Record| Vec::new());
        assert!(b.candidate_pairs(&[rec(0, "a")], &[rec(0, "a")]).is_empty());
    }
}
