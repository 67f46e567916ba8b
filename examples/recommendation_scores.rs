//! Recommendation-style ranking with the extended ranking functions.
//!
//! The paper motivates join-project queries with recommendation systems:
//! "users who interacted with the same item" is exactly a 2-hop
//! join-project query, and the interesting pairs are the ones with the best
//! combined relevance score. This example ranks candidate pairs two ways —
//! weighted sum and product — using the same enumeration machinery
//! (Section 1.1 / 2.1: the algorithms work for any monotone decomposable
//! ranking function).
//!
//! Run with: `cargo run --release --example recommendation_scores`

use rankedenum::prelude::*;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Interactions(user, item): which user interacted with which item.
    let interactions = vec![
        vec![1, 500],
        vec![2, 500],
        vec![3, 500],
        vec![1, 501],
        vec![4, 501],
        vec![2, 502],
        vec![4, 502],
        vec![5, 502],
        vec![3, 503],
        vec![5, 503],
    ];
    let mut db = Database::new();
    db.add_relation(Relation::with_tuples(
        "Interactions",
        attrs(["user", "item"]),
        interactions,
    )?)?;

    // "Users to recommend to each other": pairs that share an item.
    let query = QueryBuilder::new()
        .atom("I1", "Interactions", ["u1", "item"])
        .atom("I2", "Interactions", ["u2", "item"])
        .project(["u1", "u2"])
        .build()?;

    // Per-user relevance scores (e.g. engagement propensity in [0, 1]).
    let relevance: HashMap<Value, Weight> = [(1u64, 0.9), (2, 0.4), (3, 0.8), (4, 0.2), (5, 0.7)]
        .into_iter()
        .map(|(u, s)| (u, Weight::new(s)))
        .collect();
    let weights = WeightAssignment::zero()
        .with_table("u1", relevance.clone())
        .with_table("u2", relevance);

    // The enumerators emit answers in ascending key order; to get "most
    // relevant first" store (max_score - score) as the weight. Here we keep
    // ascending order and label the output accordingly.

    // 1. Weighted sum: u1's relevance counts double (the "seed" user).
    let weighted = WeightedSumRanking::new([("u1", 2.0), ("u2", 1.0)], 0.0, weights.clone());
    println!("Pairs by 2·rel(u1) + rel(u2), least to most relevant:");
    for pair in top_k(&query, &db, weighted, 5)? {
        println!("  ({}, {})", pair[0], pair[1]);
    }

    // 2. Product: both users must be relevant for the pair to score.
    let product = ProductRanking::new(weights);
    println!("\nPairs by rel(u1)·rel(u2), least to most relevant:");
    for pair in top_k(&query, &db, product, 5)? {
        println!("  ({}, {})", pair[0], pair[1]);
    }

    Ok(())
}
