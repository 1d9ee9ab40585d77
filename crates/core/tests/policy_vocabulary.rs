//! Every policy enum speaks the one `policy_enum!` vocabulary: `ALL` lists
//! every variant exactly once, in declaration order, and `parse`, `name`,
//! and `Display` agree with each other.

use ddio_core::{
    ArrivalProcess, ContentionModel, FaultPolicy, PrefetchPolicy, QosPolicy, RedundancyPolicy,
    ReplacementPolicy, SchedPolicy, TopologyKind, WritePolicy,
};

/// Checks one enum. The `match` over the listed variants is exhaustive, so
/// adding a variant without listing it here fails to compile, and the
/// comparison with `ALL` then proves `ALL` names every variant in order.
macro_rules! check_vocabulary {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {{
        let tag = |p: $ty| match p {
            $($ty::$variant => stringify!($variant),)+
        };
        let listed: Vec<&str> = $ty::ALL.iter().map(|&p| tag(p)).collect();
        assert_eq!(listed, [$(stringify!($variant)),+], "{} ALL", stringify!($ty));
        for p in $ty::ALL {
            assert_eq!($ty::parse(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!($ty::parse("no-such-policy"), None);
    }};
}

#[test]
fn every_policy_enum_round_trips_its_names() {
    check_vocabulary!(SchedPolicy {
        Fcfs,
        Sstf,
        Cscan,
        Presort
    });
    check_vocabulary!(TopologyKind {
        Torus,
        Mesh,
        Hypercube,
        Crossbar
    });
    check_vocabulary!(ContentionModel { NiOnly, Link });
    check_vocabulary!(FaultPolicy {
        None,
        Cacheless,
        Worn,
        Transient,
        Failure
    });
    check_vocabulary!(RedundancyPolicy {
        None,
        Mirrored,
        Parity
    });
    check_vocabulary!(ArrivalProcess {
        ClosedLoop,
        Poisson,
        Bursty
    });
    check_vocabulary!(QosPolicy {
        Fifo,
        FairShare,
        Weighted,
        TenantPriority
    });
    check_vocabulary!(ReplacementPolicy { Lru, Mru, Clock });
    check_vocabulary!(PrefetchPolicy {
        None,
        OneAhead,
        Strided
    });
    check_vocabulary!(WritePolicy {
        Through,
        FlushOnFull,
        Watermark
    });
}

#[test]
fn defaults_are_the_paper_machine() {
    assert_eq!(SchedPolicy::default(), SchedPolicy::Fcfs);
    assert_eq!(TopologyKind::default(), TopologyKind::Torus);
    assert_eq!(ContentionModel::default(), ContentionModel::NiOnly);
    assert_eq!(FaultPolicy::default(), FaultPolicy::None);
    assert_eq!(RedundancyPolicy::default(), RedundancyPolicy::None);
    assert_eq!(ArrivalProcess::default(), ArrivalProcess::ClosedLoop);
    assert_eq!(QosPolicy::default(), QosPolicy::Fifo);
    assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    assert_eq!(PrefetchPolicy::default(), PrefetchPolicy::OneAhead);
    assert_eq!(WritePolicy::default(), WritePolicy::FlushOnFull);
}
