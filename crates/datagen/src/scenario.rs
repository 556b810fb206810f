//! Named scenarios reproducing the paper's seven data sets and the eight
//! directed source → target transfer tasks of Table 2.

use transer_blocking::{CandidatePair, Comparison, MinHashLsh, MinHashLshConfig};
use transer_common::{DomainPair, LabeledDataset, Record, Result};

use crate::biblio::{self, BiblioConfig};
use crate::demographic::{self, DemographicConfig, LinkKind};
use crate::music::{self, MusicConfig};

/// One of the paper's linkage data sets (Table 1 rows).
///
/// Each scenario is the *linkage of two databases*: e.g. `DblpAcm` links a
/// DBLP-like database to an ACM-like one and yields the feature matrix the
/// paper calls "DBLP-ACM".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// DBLP ↔ ACM (bibliographic, clean, 4 features).
    DblpAcm,
    /// DBLP ↔ Google Scholar (bibliographic, noisy, 4 features).
    DblpScholar,
    /// Million Songs self-linkage (music, 5 features).
    Msd,
    /// Musicbrainz (music, heavy re-release ambiguity, 5 features).
    Musicbrainz,
    /// Isle of Skye birth-parents ↔ death-parents (8 features).
    IosBpDp,
    /// Kilmarnock birth-parents ↔ death-parents (8 features).
    KilBpDp,
    /// Isle of Skye birth-parents ↔ birth-parents (11 features).
    IosBpBp,
    /// Kilmarnock birth-parents ↔ birth-parents (11 features).
    KilBpBp,
}

impl Scenario {
    /// All seven data sets (eight scenario instances).
    pub const ALL: [Scenario; 8] = [
        Scenario::DblpAcm,
        Scenario::DblpScholar,
        Scenario::Msd,
        Scenario::Musicbrainz,
        Scenario::IosBpDp,
        Scenario::KilBpDp,
        Scenario::IosBpBp,
        Scenario::KilBpBp,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::DblpAcm => "DBLP-ACM",
            Scenario::DblpScholar => "DBLP-Scholar",
            Scenario::Msd => "MSD",
            Scenario::Musicbrainz => "MB",
            Scenario::IosBpDp => "IOS Bp-Dp",
            Scenario::KilBpDp => "KIL Bp-Dp",
            Scenario::IosBpBp => "IOS Bp-Bp",
            Scenario::KilBpBp => "KIL Bp-Bp",
        }
    }

    /// Number of similarity features (the paper's "Num. attributes").
    pub fn num_features(self) -> usize {
        match self {
            Scenario::DblpAcm | Scenario::DblpScholar => 4,
            Scenario::Msd | Scenario::Musicbrainz => 5,
            Scenario::IosBpDp | Scenario::KilBpDp => 8,
            Scenario::IosBpBp | Scenario::KilBpBp => 11,
        }
    }

    /// Entity count at `scale = 1.0`, calibrated so the generated feature
    /// matrices approximate the relative sizes of Table 1 (DBLP-ACM
    /// smallest, KIL Bp-Bp ~60× larger).
    pub fn base_entities(self) -> usize {
        match self {
            Scenario::DblpAcm => 2_800,
            Scenario::DblpScholar => 6_000,
            Scenario::Msd => 8_500,
            Scenario::Musicbrainz => 19_000,
            Scenario::IosBpDp => 50_000,
            Scenario::KilBpDp => 95_000,
            Scenario::IosBpBp => 95_000,
            Scenario::KilBpBp => 155_000,
        }
    }

    /// The shared comparison configuration of the scenario's family.
    pub fn comparison(self) -> Comparison {
        match self {
            Scenario::DblpAcm | Scenario::DblpScholar => biblio::comparison(),
            Scenario::Msd | Scenario::Musicbrainz => music::comparison(),
            Scenario::IosBpDp | Scenario::KilBpDp => demographic::comparison(LinkKind::BpDp),
            Scenario::IosBpBp | Scenario::KilBpBp => demographic::comparison(LinkKind::BpBp),
        }
    }

    /// The blocking configuration of the scenario's family: the
    /// bibliographic and music workloads use loose banding (titles rarely
    /// collide wholesale), the demographic registers use strict banding
    /// plus a block-size cap (otherwise every `john macdonald` bucket
    /// explodes quadratically).
    pub fn lsh_config(self) -> MinHashLshConfig {
        match self {
            Scenario::DblpAcm | Scenario::DblpScholar | Scenario::Msd | Scenario::Musicbrainz => {
                MinHashLshConfig { num_hashes: 32, bands: 8, max_bucket: 60, ..Default::default() }
            }
            _ => {
                MinHashLshConfig { num_hashes: 32, bands: 4, max_bucket: 40, ..Default::default() }
            }
        }
    }

    /// The attributes blocking operates on: the identifying attributes of
    /// each family (titles/authors for publications, title/artist for
    /// songs, the five person names for the registers).
    pub fn blocking_attrs(self) -> &'static [usize] {
        match self {
            Scenario::DblpAcm | Scenario::DblpScholar => &[0, 1],
            Scenario::Msd | Scenario::Musicbrainz => &[0, 2],
            _ => &[0, 1, 2, 3, 4, 5],
        }
    }

    /// Generate the scenario at the given scale: records → MinHash-LSH
    /// blocking → record-pair comparison → labelled feature matrix, the
    /// exact pipeline of Fig. 1.
    ///
    /// `scale` multiplies the entity count (`1.0` ≈ Table 1 sizes; use
    /// `0.02`–`0.1` for tests). At least 40 entities are always generated.
    ///
    /// # Errors
    /// Propagates dataset-construction errors (never expected in practice).
    pub fn generate(self, scale: f64, seed: u64) -> Result<LabeledDataset> {
        Ok(self.link(scale, seed)?.dataset)
    }

    /// Like [`Scenario::generate`] but also returning, per candidate pair,
    /// the raw attribute text of the two records — the input the deep
    /// baselines (DTAL*, DR) embed instead of similarity features.
    ///
    /// # Errors
    /// Propagates dataset-construction errors.
    pub fn generate_with_text(
        self,
        scale: f64,
        seed: u64,
    ) -> Result<(LabeledDataset, Vec<(String, String)>)> {
        let Linked { dataset, left, right, pairs } = self.link(scale, seed)?;
        let render =
            |r: &Record| r.values.iter().map(ToString::to_string).collect::<Vec<_>>().join(" ");
        let texts = pairs.iter().map(|&(i, j)| (render(&left[i]), render(&right[j]))).collect();
        Ok((dataset, texts))
    }

    /// The body shared by [`Scenario::generate`] and
    /// [`Scenario::generate_with_text`]: generate both databases, block
    /// and compare them.
    fn link(self, scale: f64, seed: u64) -> Result<Linked> {
        let entities = ((self.base_entities() as f64 * scale) as usize).max(40);
        let seed = seed ^ (self as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
        let (left, right) = match self {
            Scenario::DblpAcm => biblio::generate(&BiblioConfig::dblp_acm(entities, seed)),
            Scenario::DblpScholar => biblio::generate(&BiblioConfig::dblp_scholar(entities, seed)),
            Scenario::Msd => music::generate(&MusicConfig::msd(entities, seed)),
            Scenario::Musicbrainz => music::generate(&MusicConfig::musicbrainz(entities, seed)),
            Scenario::IosBpDp => {
                demographic::generate(&DemographicConfig::ios(LinkKind::BpDp, entities, seed))
            }
            Scenario::KilBpDp => {
                demographic::generate(&DemographicConfig::kil(LinkKind::BpDp, entities, seed))
            }
            Scenario::IosBpBp => {
                demographic::generate(&DemographicConfig::ios(LinkKind::BpBp, entities, seed))
            }
            Scenario::KilBpBp => {
                demographic::generate(&DemographicConfig::kil(LinkKind::BpBp, entities, seed))
            }
        };
        let blocker = MinHashLsh::new(self.lsh_config())?;
        let pairs = blocker.candidate_pairs_masked(&left, &right, Some(self.blocking_attrs()));
        let dataset = self.comparison().compare_to_dataset(self.name(), &left, &right, &pairs)?;
        Ok(Linked { dataset, left, right, pairs })
    }
}

/// A linked scenario: both databases, their candidate pairs and the
/// labelled feature matrix of those pairs.
struct Linked {
    dataset: LabeledDataset,
    left: Vec<Record>,
    right: Vec<Record>,
    pairs: Vec<CandidatePair>,
}

/// The four scenario pairs of Table 1, each yielding two directed transfer
/// tasks (source → target and the reverse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioPair {
    /// DBLP-ACM ↔ DBLP-Scholar.
    Bibliographic,
    /// MSD ↔ Musicbrainz.
    Music,
    /// IOS Bp-Dp ↔ KIL Bp-Dp.
    BpDp,
    /// IOS Bp-Bp ↔ KIL Bp-Bp.
    BpBp,
}

impl ScenarioPair {
    /// All four pairs.
    pub const ALL: [ScenarioPair; 4] =
        [ScenarioPair::Bibliographic, ScenarioPair::Music, ScenarioPair::BpDp, ScenarioPair::BpBp];

    /// The pair's two scenarios in the paper's (first listed → second)
    /// order.
    pub fn scenarios(self) -> (Scenario, Scenario) {
        match self {
            ScenarioPair::Bibliographic => (Scenario::DblpAcm, Scenario::DblpScholar),
            ScenarioPair::Music => (Scenario::Msd, Scenario::Musicbrainz),
            ScenarioPair::BpDp => (Scenario::IosBpDp, Scenario::KilBpDp),
            ScenarioPair::BpBp => (Scenario::IosBpBp, Scenario::KilBpBp),
        }
    }

    /// Generate the forward transfer task (first scenario as source).
    ///
    /// # Errors
    /// Propagates generation errors.
    pub fn domain_pair(self, scale: f64, seed: u64) -> Result<DomainPair> {
        let (s, t) = self.scenarios();
        DomainPair::new(s.generate(scale, seed)?, t.generate(scale, seed)?)
    }

    /// Generate both directed tasks `[forward, reverse]`.
    ///
    /// # Errors
    /// Propagates generation errors.
    pub fn both_directions(self, scale: f64, seed: u64) -> Result<[DomainPair; 2]> {
        let forward = self.domain_pair(scale, seed)?;
        let reverse = forward.reversed();
        Ok([forward, reverse])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_generate_at_tiny_scale() {
        for s in Scenario::ALL {
            let d = s.generate(0.02, 7).unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            assert!(!d.is_empty(), "{} empty", s.name());
            assert_eq!(d.x.cols(), s.num_features(), "{}", s.name());
            // ER candidate sets are imbalanced towards non-matches but must
            // contain some matches.
            let rate = d.match_rate();
            assert!(rate > 0.02 && rate < 0.7, "{}: match rate {rate}", s.name());
        }
    }

    #[test]
    fn generate_is_generate_with_text_without_the_text() {
        for s in Scenario::ALL {
            let plain = s.generate(0.02, 7).unwrap();
            let (with_text, texts) = s.generate_with_text(0.02, 7).unwrap();
            assert_eq!(plain.name, with_text.name);
            assert_eq!(plain.y, with_text.y, "{}", s.name());
            assert_eq!(plain.x.cols(), with_text.x.cols(), "{}", s.name());
            let bits =
                |d: &LabeledDataset| d.x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&plain), bits(&with_text), "{}", s.name());
            assert_eq!(texts.len(), plain.y.len(), "{}", s.name());
        }
    }

    #[test]
    fn pairs_share_feature_spaces() {
        for p in ScenarioPair::ALL {
            let (s, t) = p.scenarios();
            assert_eq!(s.num_features(), t.num_features());
        }
    }

    #[test]
    fn domain_pair_construction() {
        let pair = ScenarioPair::Bibliographic.domain_pair(0.02, 3).unwrap();
        assert_eq!(pair.label(), "DBLP-ACM -> DBLP-Scholar");
        assert_eq!(pair.num_features(), 4);
        let [fwd, rev] = ScenarioPair::Bibliographic.both_directions(0.02, 3).unwrap();
        assert_eq!(rev.label(), "DBLP-Scholar -> DBLP-ACM");
        assert_eq!(fwd.source, rev.target);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Scenario::Msd.generate(0.02, 5).unwrap();
        let b = Scenario::Msd.generate(0.02, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scenario::DblpAcm.generate(0.02, 1).unwrap();
        let b = Scenario::DblpAcm.generate(0.02, 2).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn scale_grows_the_dataset() {
        let small = Scenario::DblpAcm.generate(0.02, 9).unwrap();
        let larger = Scenario::DblpAcm.generate(0.08, 9).unwrap();
        assert!(larger.len() > small.len());
    }

    #[test]
    fn relative_sizes_roughly_ordered() {
        // The demographic scenarios must dwarf the bibliographic ones, as
        // in Table 1.
        assert!(Scenario::KilBpBp.base_entities() > 20 * Scenario::DblpAcm.base_entities());
    }
}
