//! Any ledger record survives its own line: `parse_line(to_line(r)) == r`
//! for random counts, hashes and wall fields, and for revision, scenario
//! and mode strings carrying quotes, backslashes, control characters and
//! non-ASCII text.

use bgpscale_obs::costmodel::OpCounts;
use bgpscale_obs::ledger::{parse_line, LedgerRecord, WallSide};
use proptest::prelude::*;

/// Strings over an alphabet that exercises every escape the writer has.
fn text() -> impl Strategy<Value = String> {
    let alphabet = vec![
        'a', 'Z', '0', ' ', '-', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}',
        '\u{7f}', 'é', 'ß', '→', '🦀', '{', '}', ':', ',',
    ];
    prop::collection::vec(prop::sample::select(alphabet), 0..12)
        .prop_map(|cs| cs.into_iter().collect())
}

fn ops() -> impl Strategy<Value = OpCounts> {
    prop::collection::vec(
        any::<u64>(),
        OpCounts::FIELD_COUNT..OpCounts::FIELD_COUNT + 1,
    )
    .prop_map(|values| {
        let mut fields = OpCounts::default().fields();
        for ((_, slot), value) in fields.iter_mut().zip(values) {
            *slot = value;
        }
        OpCounts::from_fields(&fields)
    })
}

fn record() -> impl Strategy<Value = LedgerRecord> {
    let names = (text(), text(), text());
    let cell = (any::<u64>(), any::<u64>(), any::<u64>(), ops());
    let wall = (any::<u64>(), any::<u64>(), prop::option::of(any::<u64>()));
    (names, cell, any::<u64>(), wall).prop_map(
        |((git_rev, scenario, mode), (n, seed, events, ops), costmodel, w)| LedgerRecord {
            git_rev,
            scenario,
            n,
            mode,
            seed,
            events,
            ops,
            costmodel,
            wall: WallSide {
                wall_us: w.0,
                jobs: w.1,
                peak_rss_bytes: w.2,
            },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_record_round_trips_through_its_line(r in record()) {
        let line = r.to_line();
        prop_assert!(!line.contains('\n'), "one record, one line: {line:?}");
        prop_assert_eq!(parse_line(&line, 1), Ok(r));
    }
}
