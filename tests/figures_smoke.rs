//! Smoke-level regeneration of every table and figure through the
//! experiments crate, at toy scale: every driver must produce populated,
//! deterministic output, and the scale-robust claims must hold.

use bgpscale::experiments::{figures, RunConfig, Sweeper};

fn tiny_sweeper() -> Sweeper {
    Sweeper::new(RunConfig::tiny())
}

#[test]
fn every_figure_renders_nonempty() {
    let mut sw = tiny_sweeper();
    let figures: Vec<bgpscale::experiments::Figure> = vec![
        figures::table1::run(&mut sw),
        figures::fig1::run(&mut sw),
        figures::fig3::run(&mut sw),
        figures::fig4::run(&mut sw),
        figures::fig5::run(&mut sw),
        figures::fig6::run(&mut sw),
        figures::fig7::run(&mut sw),
        figures::fig8::run(&mut sw),
        figures::fig9::run(&mut sw),
        figures::fig10::run(&mut sw),
        figures::fig11::run(&mut sw),
        figures::fig12::run(&mut sw),
    ];
    for fig in &figures {
        assert!(!fig.tables.is_empty(), "{} has no tables", fig.id);
        for table in &fig.tables {
            assert!(!table.rows.is_empty(), "{}: table '{}' empty", fig.id, table.title);
        }
        assert!(!fig.claims.is_empty(), "{} asserts nothing", fig.id);
        let rendered = fig.render();
        assert!(rendered.contains(&fig.id));
    }
    // The cache makes the Baseline sweep shared across figures: far fewer
    // cells than figures × sizes.
    assert!(sw.cached_cells() <= 50, "cache ineffective: {}", sw.cached_cells());
}

#[test]
fn figure_output_is_deterministic() {
    let mut a = tiny_sweeper();
    let mut b = tiny_sweeper();
    assert_eq!(
        figures::fig4::run(&mut a).render(),
        figures::fig4::run(&mut b).render()
    );
    assert_eq!(
        figures::fig8::run(&mut a).render(),
        figures::fig8::run(&mut b).render()
    );
}

#[test]
fn csv_export_shape_matches_tables() {
    let mut sw = tiny_sweeper();
    let fig = figures::fig4::run(&mut sw);
    for table in &fig.tables {
        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), table.rows.len() + 1);
        let header_cols = csv.lines().next().unwrap().split(',').count();
        assert_eq!(header_cols, table.headers.len());
    }
}
