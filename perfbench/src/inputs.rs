//! Seeded inputs: cubes, MDX windows, dashboard refreshes and append
//! batches. Everything a round needs is derived from `(seed, round,
//! slot)` alone, so the untraced and traced passes of one run, and any
//! two runs with one seed, see the same inputs.

use starshare_core::paper_queries::paper_query_text;
use starshare_core::{
    generate_mdx, paper_cube, paper_schema, Cube, CubeBuilder, IndexFormat, PaperCubeSpec,
    StarSchema,
};
use starshare_prng::Prng;

use crate::report::mix;
use crate::Workload;

/// Expressions per ad-hoc window.
pub const WINDOW_EXPRS: usize = 8;
/// Ad-hoc windows per round; one append batch closes each round.
pub const ADHOC_WINDOWS_PER_ROUND: usize = 10;
/// Dashboard refreshes per round; one append batch closes each round.
pub const REFRESHES_PER_ROUND: usize = 5;
/// Rows per append batch.
pub const APPEND_ROWS: usize = 1000;

/// The paper's scale-1 cube: 2 M rows, the four Table 1 views, and
/// A'/B'/C'/D' bitmap indexes on `ABCD` and `A'B'C'D`, plain pages.
pub fn paper_scale1() -> Cube {
    paper_cube(PaperCubeSpec::full())
}

/// The same rows, views and indexes, but the base table clustered by A,
/// every heap compressed and every index in compressed form.
pub fn clustered_compressed() -> Cube {
    let spec = PaperCubeSpec::full();
    let mut b = CubeBuilder::new(paper_schema(spec.d_leaf))
        .rows(spec.base_rows)
        .seed(spec.seed)
        .base_name("ABCD")
        .materialize("A'B'C'D")
        .materialize("A'B''C'D")
        .materialize("A''B'C'D")
        .materialize("A''B''C''D");
    for table in ["ABCD", "A'B'C'D"] {
        for level in ["A'", "B'", "C'", "D'"] {
            b = b.index(table, level);
        }
    }
    b.cluster_by("A")
        .compress()
        .index_format(IndexFormat::Compressed)
        .build()
}

/// The scale-1 base table alone (same generator and seed as
/// [`paper_scale1`], so the same rows): the brute-force reference the
/// dashboard's served answers are checked against.
pub fn paper_base_only() -> Cube {
    let spec = PaperCubeSpec::full();
    CubeBuilder::new(paper_schema(spec.d_leaf))
        .rows(spec.base_rows)
        .seed(spec.seed)
        .base_name("ABCD")
        .build()
}

fn rng_for(seed: u64, workload: Workload, parts: &[u64]) -> Prng {
    let mut all = vec![seed, workload as u64];
    all.extend_from_slice(parts);
    Prng::seed_from_u64(mix(&all))
}

/// Window `w` of round `round`: [`WINDOW_EXPRS`] expressions. Ad-hoc
/// windows use the engine's own random generator; selective windows
/// restrict A to at most one A' member so zone maps can prune.
pub fn window(
    schema: &StarSchema,
    workload: Workload,
    seed: u64,
    round: u64,
    w: u64,
) -> Vec<String> {
    let mut rng = rng_for(seed, workload, &[1, round, w]);
    (0..WINDOW_EXPRS)
        .map(|_| match workload {
            Workload::SelectiveCompressed => selective_mdx(schema, &mut rng),
            _ => generate_mdx(schema, "ABCD", &mut rng),
        })
        .collect()
}

/// One member path of dimension `d` at a random level, sometimes with
/// `.CHILDREN` (the shape `generate_mdx` uses).
fn member_path(schema: &StarSchema, d: usize, rng: &mut Prng) -> String {
    let dim = schema.dim(d);
    let level = rng.gen_range(0..dim.n_levels());
    let member = rng.gen_range(0..dim.cardinality(level));
    let mut path = format!(
        "{}.{}",
        dim.level(level).name,
        dim.member_name(level, member)
    );
    if level > 0 && rng.gen_bool(0.4) {
        path.push_str(".CHILDREN");
    }
    path
}

/// An expression that restricts A to one A' member (the member itself,
/// its children, or one leaf below it) and mixes the other dimensions
/// freely over 1–3 axes and an optional slicer.
fn selective_mdx(schema: &StarSchema, rng: &mut Prng) -> String {
    let a = schema.dim(0);
    let a_mid = rng.gen_range(0..a.cardinality(1));
    let a_on_axis = rng.gen_bool(0.5);
    let a_path = match rng.gen_range(0..3u32) {
        0 => format!("{}.{}", a.level(1).name, a.member_name(1, a_mid)),
        1 if a_on_axis => format!("{}.{}.CHILDREN", a.level(1).name, a.member_name(1, a_mid)),
        _ => {
            let leaves = a.descendants(a_mid, 1, 0);
            let leaf = rng.gen_range(leaves.start..leaves.end);
            format!("{}.{}", a.level(0).name, a.member_name(0, leaf))
        }
    };
    let mut others: Vec<usize> = (1..schema.n_dims()).collect();
    rng.shuffle(&mut others);
    let n_axes = rng.gen_range(1..=3usize);
    let mut axes: Vec<String> = Vec::new();
    let mut slicer: Vec<String> = Vec::new();
    if a_on_axis {
        axes.push(format!("{{{a_path}}}"));
    } else {
        slicer.push(a_path);
    }
    for &d in &others {
        if axes.len() < n_axes {
            let n = rng.gen_range(1..=2usize);
            let items: Vec<String> = (0..n).map(|_| member_path(schema, d, rng)).collect();
            axes.push(format!("{{{}}}", items.join(", ")));
        } else if rng.gen_bool(0.5) {
            let dim = schema.dim(d);
            let level = rng.gen_range(0..dim.n_levels());
            let member = rng.gen_range(0..dim.cardinality(level));
            slicer.push(format!(
                "{}.{}",
                dim.level(level).name,
                dim.member_name(level, member)
            ));
        }
    }
    let mut out = String::new();
    for (set, axis) in axes.iter().zip(["COLUMNS", "ROWS", "PAGES"]) {
        out.push_str(&format!("{set} on {axis} "));
    }
    out.push_str("CONTEXT ABCD");
    if !slicer.is_empty() {
        out.push_str(&format!(" FILTER ({})", slicer.join(", ")));
    }
    out.push(';');
    out
}

/// Drill-ups and slices of the first session's panels (Q1–Q5): each is
/// answerable from a cached panel by rolling it up or filtering it.
const SALES_DRILLS: [&str; 4] = [
    "{A''.A1} on COLUMNS {B''.B1} on ROWS {C''.C1} on PAGES CONTEXT ABCD FILTER (D.DD1);",
    "{A''.A1, A''.A2, A''.A3} on COLUMNS {B''.B2} on ROWS {C''.C2} on PAGES \
     CONTEXT ABCD FILTER (D.DD1);",
    "{A''.A2} on COLUMNS {B''.B2} on ROWS {C''.C1} on PAGES CONTEXT ABCD FILTER (D.DD1);",
    "{A''.A3} on COLUMNS {B''.B3} on ROWS {C''.C1, C''.C2} on PAGES \
     CONTEXT ABCD FILTER (D.DD1);",
];

/// Drill-ups of the second session's panels (Q6–Q9).
const OPS_DRILLS: [&str; 4] = [
    "{A''.A2.CHILDREN.AA5} on COLUMNS {B''.B1} on ROWS {C''.C3.CHILDREN.CC2} on PAGES \
     CONTEXT ABCD FILTER (D.DD1);",
    "{A''.A1} on COLUMNS {B''.B2, B''.B3} on ROWS {C''.C1.CHILDREN} on PAGES \
     CONTEXT ABCD FILTER (D.DD1);",
    "{A''.A1.CHILDREN} on COLUMNS {B''.B2, B''.B3} on ROWS {C''.C1} on PAGES \
     CONTEXT ABCD FILTER (D.DD1);",
    "{A''.A1} on COLUMNS {B''.B2, B''.B3} on ROWS {C''.C1} on PAGES \
     CONTEXT ABCD FILTER (D.DD1);",
];

/// Expressions per dashboard refresh, both sessions together: the serve
/// window closes on this count.
pub const REFRESH_EXPRS: usize = 12;

/// Refresh `k` of round `round`: the two sessions' submissions. The first
/// holds Q1–Q5 and one seeded drill-up, the second Q6–Q9 and two.
pub fn refresh(seed: u64, round: u64, k: u64) -> [Vec<String>; 2] {
    let mut rng = rng_for(seed, Workload::DashboardServe, &[2, round, k]);
    let mut sales: Vec<String> = (1..=5).map(|n| paper_query_text(n).to_owned()).collect();
    sales.push(SALES_DRILLS[rng.gen_range(0..SALES_DRILLS.len())].to_owned());
    let mut ops: Vec<String> = (6..=9).map(|n| paper_query_text(n).to_owned()).collect();
    for _ in 0..2 {
        ops.push(OPS_DRILLS[rng.gen_range(0..OPS_DRILLS.len())].to_owned());
    }
    debug_assert_eq!(sales.len() + ops.len(), REFRESH_EXPRS);
    [sales, ops]
}

/// The append batch closing round `round`: uniform leaf keys and
/// quarter-unit measures, like the generated facts (so every re-aggregated
/// sum stays exact and answers compare bit for bit).
pub fn append_batch(
    schema: &StarSchema,
    workload: Workload,
    seed: u64,
    round: u64,
) -> Vec<(Vec<u32>, f64)> {
    let mut rng = rng_for(seed, workload, &[3, round]);
    let cards: Vec<u32> = (0..schema.n_dims())
        .map(|d| schema.dim(d).cardinality(0))
        .collect();
    (0..APPEND_ROWS)
        .map(|_| {
            let keys = cards.iter().map(|&c| rng.gen_range(0..c)).collect();
            (keys, rng.gen_range(0u32..400) as f64 * 0.25)
        })
        .collect()
}

/// A seeded pick in `0..n` for round `round`'s output checks.
pub fn check_pick(seed: u64, workload: Workload, round: u64, slot: u64, n: usize) -> usize {
    let mut rng = rng_for(seed, workload, &[4, round, slot]);
    rng.gen_range(0..n.max(1))
}
