//! Layer probes run after the traced pass, outside the timed phase: the
//! storage decode rate (`HeapFile::scan_batches`), the aggregation-kernel
//! rate on pre-decoded batches (`AggKernel`), and a host roofline to read
//! both against (sequential read bandwidth over a buffer the size of the
//! base heap, and a plain column-sum rate).

use std::hint::black_box;
use std::time::Instant;

use starshare_core::{
    combine_mode, AggFn, AggKernel, BufferPool, CpuCounters, Cube, HardwareModel, MeasureKind,
    ScanBatch,
};

use crate::report::{median, Checks};
use crate::spans::Spans;

/// Repeats per probe; each probe reports the median.
const REPEATS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct ProbeRates {
    /// Rows per second `scan_batches` decodes from the base heap, in M.
    pub decode_mrows_per_s: f64,
    /// Rows per second the kernel aggregates from decoded batches, in M.
    pub kernel_mrows_per_s: f64,
    /// Host sequential read bandwidth, GB/s.
    pub seq_read_gb_per_s: f64,
    /// Host plain `u32` column-sum rate, M rows/s.
    pub column_sum_mrows_per_s: f64,
}

pub fn run(
    cube: &Cube,
    model: &HardwareModel,
    spans: &mut Spans,
    checks: &mut Checks,
) -> ProbeRates {
    let base = cube.catalog.base_table().expect("cube has a base table");
    let table = cube.catalog.table(base);
    let heap = table.heap();
    let rows = heap.n_tuples();

    // Decode: one reused batch, so the rate is decode work, not allocation.
    let mut decode_s = Vec::new();
    for _ in 0..REPEATS {
        let mut pool = BufferPool::for_model(model);
        let mut batch = ScanBatch::new(heap.layout());
        let mut n = 0u64;
        let t = Instant::now();
        spans.time("storage.scan_batches", "storage", || {
            let mut cursor = heap.scan_batches(0, rows);
            while cursor.next_into(&mut pool, &mut batch) {
                n += black_box(batch.len()) as u64;
            }
        });
        decode_s.push(t.elapsed().as_secs_f64());
        checks.expect(n == rows, || {
            format!("scan_batches decoded {n} of {rows} rows")
        });
    }

    // Kernel: the A'B'C'D' group-by over the base table, fed the batches
    // decoded once up front.
    let mut pool = BufferPool::for_model(model);
    let mut batches = Vec::new();
    let mut cursor = heap.scan_batches(0, rows);
    loop {
        let mut b = ScanBatch::new(heap.layout());
        if !cursor.next_into(&mut pool, &mut b) {
            break;
        }
        batches.push(b);
    }
    let schema = &cube.schema;
    let extract: Vec<(usize, u32)> = (0..schema.n_dims())
        .map(|d| {
            (
                d,
                schema.dim(d).cardinality(0) / schema.dim(d).cardinality(1),
            )
        })
        .collect();
    let cards: Vec<u32> = (0..schema.n_dims())
        .map(|d| schema.dim(d).cardinality(1))
        .collect();
    let kernel = AggKernel::compile(extract, cards);
    let mode = combine_mode(AggFn::Sum, MeasureKind::Raw);
    let expected: f64 = batches
        .iter()
        .flat_map(|b| (0..b.len()).map(move |i| b.measure(i)))
        .sum();
    let mut kernel_s = Vec::new();
    for _ in 0..REPEATS {
        let mut acc = kernel.new_acc();
        let mut scratch = Vec::new();
        let mut cpu = CpuCounters::default();
        let t = Instant::now();
        spans.time("exec.kernel", "exec", || {
            for b in &batches {
                for row in 0..b.len() {
                    kernel.absorb_row(&mut acc, mode, b, row, &mut scratch, &mut cpu);
                }
            }
        });
        kernel_s.push(t.elapsed().as_secs_f64());
        let total: f64 = kernel
            .into_groups(acc)
            .iter()
            .map(|(_, st)| st.value(mode))
            .sum();
        checks.expect(total == expected, || {
            format!("kernel probe summed {total}, the batches hold {expected}")
        });
    }
    drop(batches);

    // Roofline: a buffer the size of the base heap, read sequentially.
    let words = (heap.resident_bytes() / 8) as usize;
    let buffer: Vec<u64> = (0..words as u64).collect();
    let mut read_s = Vec::new();
    for _ in 0..REPEATS {
        let t = Instant::now();
        spans.time("host.seq_read", "host", || {
            black_box(buffer.iter().fold(0u64, |a, &w| a.wrapping_add(w)))
        });
        read_s.push(t.elapsed().as_secs_f64());
    }
    drop(buffer);
    let column: Vec<u32> = (0..rows as u32).collect();
    let mut sum_s = Vec::new();
    for _ in 0..REPEATS {
        let t = Instant::now();
        spans.time("host.column_sum", "host", || {
            black_box(black_box(&column).iter().map(|&k| k as u64).sum::<u64>())
        });
        sum_s.push(t.elapsed().as_secs_f64());
    }

    let mrows = rows as f64 / 1e6;
    ProbeRates {
        decode_mrows_per_s: mrows / median(&decode_s),
        kernel_mrows_per_s: mrows / median(&kernel_s),
        seq_read_gb_per_s: (words * 8) as f64 / 1e9 / median(&read_s),
        column_sum_mrows_per_s: mrows / median(&sum_s),
    }
}
