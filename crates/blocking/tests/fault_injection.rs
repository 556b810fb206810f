//! Fault-injection seams of the blocking and comparison steps. A fault
//! plan is armed for the whole process, so these tests live in their own
//! binary, apart from the unit tests an armed plan would perturb, and
//! serialise on `transer_robust::test_lock`.

mod compare {
    use transer_blocking::Comparison;
    use transer_common::{AttrValue, Error, Label, Record};
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

        transer_robust::set_plan(Some("compare:task_fail"));
        assert_eq!(c.compare_pairs(&left, &right, &pairs), Err(Error::FaultInjected("compare")));

        transer_robust::set_plan(Some("compare:nan"));
        let (x, y) = c.compare_pairs(&left, &right, &pairs).unwrap();
        assert!(x.as_slice().iter().any(|v| v.is_nan()));
        assert_eq!(y.len(), pairs.len());

        transer_robust::set_plan(Some("compare:empty"));
        let (x, y) = c.compare_pairs(&left, &right, &pairs).unwrap();
        assert!(x.is_empty() && y.is_empty());

        transer_robust::set_plan(Some("compare:single_class"));
        let (_, y) = c.compare_pairs(&left, &right, &pairs).unwrap();
        assert!(y.iter().all(|l| *l == Label::NonMatch));

        transer_robust::set_plan(None);
        let (x, y) = c.compare_pairs(&left, &right, &pairs).unwrap();
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(y[0], Label::Match);
    }
}

mod standard {
    use transer_blocking::StandardBlocking;
    use transer_common::{AttrValue, Record};
    use transer_similarity::soundex;

    fn rec(id: u64, name: &str) -> Record {
        Record::new(id, id, vec![AttrValue::Text(name.into())])
    }

    fn surname_soundex(r: &Record) -> Vec<String> {
        r.values[0].as_text().map(|s| vec![soundex(s)]).unwrap_or_default()
    }

    #[test]
    fn blocking_fault_drops_candidates() {
        let _guard = transer_robust::test_lock();
        let left = vec![rec(0, "smith")];
        let right = vec![rec(0, "smyth")];
        let b = StandardBlocking::new(surname_soundex);
        transer_robust::set_plan(Some("blocking:empty"));
        assert!(b.candidate_pairs(&left, &right).is_empty());
        transer_robust::set_plan(Some("blocking:nan"));
        assert_eq!(b.candidate_pairs(&left, &right), vec![(0, 0)]);
        transer_robust::set_plan(None);
        assert_eq!(b.candidate_pairs(&left, &right), vec![(0, 0)]);
    }
}
