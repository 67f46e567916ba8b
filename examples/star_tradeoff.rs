//! The preprocessing/delay tradeoff of Theorem 2 on a star query.
//!
//! For the DBLP 3-star query (author triples sharing a paper), sweep the
//! degree threshold δ: small δ materialises more answers up front (longer
//! preprocessing, larger space, faster enumeration), large δ defers almost
//! everything to enumeration time. This is the experiment behind Figure 7.
//!
//! δ moves work, never answers: every row's first 50 000 answers must equal
//! the δ = 1 000 000 row's as a sequence, and the example exits non-zero if
//! one does not.
//!
//! Run with: `cargo run --release --example star_tradeoff`

use rankedenum::prelude::*;
use rankedenum::workloads::membership::WeightScheme;
use rankedenum::workloads::DblpWorkload;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload =
        DblpWorkload::generate(rankedenum::scale::scaled(20_000), 7, WeightScheme::Random);
    let spec = workload.three_star();
    let ranking = spec.sum_ranking();
    println!("query: {} over {} tuples", spec.name, workload.db().size());
    println!(
        "{:>10} {:>16} {:>14} {:>14} {:>12}",
        "δ", "heavy answers", "preprocess", "enumerate", "answers"
    );

    let mut reference: Option<Vec<Tuple>> = None;
    for delta in [1_000_000usize, 10_000, 1_000, 100, 10] {
        let start = Instant::now();
        let enumerator = StarEnumerator::new(&spec.query, workload.db(), ranking.clone(), delta)?;
        let preprocess = start.elapsed();
        let heavy = enumerator.heavy_output_size();

        let start = Instant::now();
        let answers: Vec<Tuple> = enumerator.take(50_000).collect();
        let enumerate = start.elapsed();
        let count = answers.len();

        println!("{delta:>10} {heavy:>16} {preprocess:>14.2?} {enumerate:>14.2?} {count:>12}");
        match &reference {
            None => reference = Some(answers),
            Some(expected) if *expected != answers => {
                return Err(format!(
                    "δ = {delta}: the first {count} answers differ from the δ = 1000000 row's"
                )
                .into());
            }
            Some(_) => {}
        }
    }

    println!(
        "\nSmaller δ = more preprocessing and space, less work per answer —\n\
         the smooth tradeoff of Theorem 2; every row's answers are the same."
    );
    Ok(())
}
