fn main() {
    edgenn_obs::flight::enable();
    // warm
    for _ in 0..1000 {
        edgenn_obs::flight::instant(edgenn_obs::SpanKind::ArenaMiss, 1, 0);
    }
    let n = 1_000_000u64;
    let t = std::time::Instant::now();
    for _ in 0..n {
        let s = edgenn_obs::flight::begin(edgenn_obs::SpanKind::Node, 1);
        edgenn_obs::flight::end(s);
    }
    let span_ns = t.elapsed().as_nanos() as f64 / n as f64;
    let t = std::time::Instant::now();
    for _ in 0..n {
        edgenn_obs::flight::instant(edgenn_obs::SpanKind::ArenaMiss, 1, 0);
    }
    let inst_ns = t.elapsed().as_nanos() as f64 / n as f64;
    let t = std::time::Instant::now();
    let mut acc = 0u64;
    for _ in 0..n {
        acc = acc.wrapping_add(edgenn_obs::flight::now_ns());
    }
    let now_ns = t.elapsed().as_nanos() as f64 / n as f64;
    println!(
        "begin+end {span_ns:.1} ns, instant {inst_ns:.1} ns, now_ns {now_ns:.1} ns (acc {acc})"
    );
}
