//! Fault-injection seams of the blocking and comparison steps. A fault
//! plan is armed for the whole process, so these tests live in their own
//! binary, apart from the unit tests an armed plan would perturb, and
//! serialise on `transer_robust::test_lock`.

mod compare {
    use transer_blocking::{Comparison, PreparedLayer};
    use transer_common::{AttrValue, Error, FeatureMatrix, Label, Record};
    use transer_parallel::Pool;
    use transer_similarity::Measure;

    fn rec(id: u64, entity: u64, title: &str, year: f64) -> Record {
        Record::new(id, entity, vec![AttrValue::Text(title.into()), AttrValue::Number(year)])
    }

    fn cmp() -> Comparison {
        Comparison::new(vec![(0, Measure::TokenJaccard), (1, Measure::Year)]).unwrap()
    }

    #[test]
    fn compare_fault_site_covers_every_kind() {
        let _guard = transer_robust::test_lock();
        let left = vec![rec(0, 1, "a b", 2000.0), rec(1, 2, "c d", 2001.0)];
        let right = left.clone();
        let pairs = [(0, 0), (0, 1), (1, 1)];
        let c = cmp();

        // The prepared entry, which serving calls, fires the same seam with
        // the same effect on the matrix.
        let mut layer = PreparedLayer::new(&c);
        for slot in 0..left.len() {
            layer.prepare(&left, slot).unwrap();
        }
        let features =
            || c.compare_prepared_with_pool(&layer, &left, &right, &pairs, &Pool::new(1));
        let bits =
            |x: &FeatureMatrix| -> Vec<u64> { x.as_slice().iter().map(|v| v.to_bits()).collect() };

        transer_robust::set_plan(Some("compare:task_fail"));
        assert_eq!(c.compare_pairs(&left, &right, &pairs), Err(Error::FaultInjected("compare")));
        assert_eq!(features(), Err(Error::FaultInjected("compare")));

        transer_robust::set_plan(Some("compare:nan"));
        let (x, y) = c.compare_pairs(&left, &right, &pairs).unwrap();
        assert!(x.as_slice().iter().any(|v| v.is_nan()));
        assert_eq!(y.len(), pairs.len());
        assert_eq!(bits(&features().unwrap()), bits(&x));

        transer_robust::set_plan(Some("compare:empty"));
        let (x, y) = c.compare_pairs(&left, &right, &pairs).unwrap();
        assert!(x.is_empty() && y.is_empty());
        assert!(features().unwrap().is_empty());

        transer_robust::set_plan(Some("compare:single_class"));
        let (_, y) = c.compare_pairs(&left, &right, &pairs).unwrap();
        assert!(y.iter().all(|l| *l == Label::NonMatch));

        transer_robust::set_plan(None);
        let (x, y) = c.compare_pairs(&left, &right, &pairs).unwrap();
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(y[0], Label::Match);
    }
}

mod blocking {
    use std::fmt::Debug;

    use transer_blocking::{LshIndex, MinHashLsh, MinHashLshConfig};
    use transer_common::{AttrValue, Record};
    use transer_parallel::Pool;
    use transer_robust::FaultKind;

    fn corpus() -> Vec<Record> {
        let titles = [
            "a fast algorithm for record linkage",
            "record linkage at scale",
            "the beatles abbey road",
            "entity resolution with transfer learning",
            "transfer learning for entity resolution",
        ];
        (0..30)
            .map(|i| {
                let title = format!("{} part {}", titles[i as usize % 5], i % 3);
                Record::new(i, i, vec![AttrValue::Text(title)])
            })
            .collect()
    }

    /// Arm `blocking:<kind>` for every kind and run `call` once per plan at
    /// one and at four workers: the site fires exactly once per call,
    /// `empty` and `task_fail` leave `no_candidates`, and the other kinds
    /// leave the disarmed result untouched.
    fn sweep<T: PartialEq + Debug>(call: impl Fn(&Pool) -> T, no_candidates: T) {
        let _guard = transer_robust::test_lock();
        transer_trace::set_enabled(true);
        for workers in [1, 4] {
            let pool = Pool::new(workers);
            transer_robust::set_plan(None);
            let disarmed = call(&pool);
            assert_ne!(disarmed, no_candidates, "the fixture must block something");
            let _ = transer_trace::drain_report();
            for kind in FaultKind::ALL {
                transer_robust::set_plan(Some(&format!("blocking:{}", kind.as_str())));
                let armed = call(&pool);
                let fires = transer_trace::drain_report().counter("robust.fault.blocking");
                assert_eq!(fires, 1, "blocking:{} at {workers} workers", kind.as_str());
                let expected = match kind {
                    FaultKind::Empty | FaultKind::TaskFail => &no_candidates,
                    FaultKind::Nan | FaultKind::Inf | FaultKind::SingleClass => &disarmed,
                };
                assert_eq!(&armed, expected, "blocking:{} at {workers} workers", kind.as_str());
            }
        }
        transer_robust::set_plan(None);
        transer_trace::set_enabled(false);
    }

    #[test]
    fn blocking_fault_site_covers_every_kind_on_minhash() {
        let records = corpus();
        let (left, right) = records.split_at(15);
        let lsh = MinHashLsh::new(MinHashLshConfig::default()).expect("valid LSH config");
        sweep(|pool| lsh.candidate_pairs_masked_with_pool(left, right, None, pool), Vec::new());
    }

    #[test]
    fn blocking_fault_site_covers_every_kind_on_the_index() {
        let records = corpus();
        let index = LshIndex::from_records(MinHashLshConfig::default(), None, &records[..15])
            .expect("valid LSH config");
        let probes = &records[15..];
        sweep(|pool| index.query_batch(probes, pool), vec![Vec::new(); probes.len()]);
    }
}
