//! Datasets and statements.
//!
//! Every dataset is the DBLP-like `AuthorPapers(aid, pid)` relation of
//! `re_workloads`, generated from the run's seed at three sizes. Every
//! statement is a membership chain `M1 ⋈ M2 ⋈ … ⋈ Mn` (consecutive atoms
//! share `pid`, then `aid`, alternately), optionally closed into a cycle,
//! optionally with a point filter on `M1.aid`. A [`Chain`] renders both
//! the SQL text the server is sent and — without going through the SQL
//! front-end — the equivalent [`JoinProjectQuery`] the oracle evaluates.

use crate::harness::driver::SplitMix;
use re_query::{JoinProjectQuery, QueryBuilder};
use re_storage::{Database, Relation, Value};
use re_workloads::{membership::WeightScheme, DblpWorkload};

/// The one relation every dataset holds.
pub const RELATION: &str = "AuthorPapers";

/// Edge counts of the three datasets.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub cyc: usize,
    pub mid: usize,
    pub big: usize,
}

impl Sizes {
    /// The sizes every reported number is measured at.
    pub const FULL: Sizes = Sizes {
        cyc: 1_200,
        mid: 5_000,
        big: 20_000,
    };
    /// Sizes for `--smoke`: every code path, no meaningful timing.
    pub const SMOKE: Sizes = Sizes {
        cyc: 150,
        mid: 400,
        big: 800,
    };

    pub fn edges(&self, dataset: &str) -> usize {
        match dataset {
            "cyc" => self.cyc,
            "mid" => self.mid,
            "big" => self.big,
            other => panic!("unknown dataset `{other}`"),
        }
    }
}

/// Seed of the generator, whatever `--seed` is. Degrees, answer counts and
/// bag sizes of a 1 200-edge Zipf sample differ by ±15 % between generator
/// seeds, which would drown any bound; `--seed` varies everything else.
const SHAPE_SEED: u64 = 20_220_901;

/// Every identifier `v` becomes `v * STRIDE + c`, `c` below `STRIDE`.
const STRIDE: Value = 1000;

/// Generate dataset `name` for `seed`: the DBLP-like relation of
/// `re_workloads` at the dataset's size, with author and paper identifiers
/// each pushed through a seed-drawn affine map and the rows shuffled.
///
/// The shape of the graph, and which answers tie under `SUM`, are the same
/// for every seed: the cost of a session's second page alone swings by a
/// third with the tie structure, and a bound has to hold across seeds. The
/// values the server sees, the row order it loads, the point constants and
/// the statement draws all depend on the seed.
pub fn generate(name: &str, sizes: &Sizes, seed: u64) -> Database {
    let shape = DblpWorkload::generate(sizes.edges(name), SHAPE_SEED, WeightScheme::Random);
    let source = shape.db().relation(RELATION).expect("generated relation");
    let mut rng = SplitMix::new(seed ^ 0x0da7_a5e7);
    let offsets = [rng.below(STRIDE), rng.below(STRIDE)];
    let mut rows: Vec<Vec<Value>> = source
        .iter()
        .map(|t| vec![t[0] * STRIDE + offsets[0], t[1] * STRIDE + offsets[1]])
        .collect();
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let relation = Relation::with_tuples(RELATION, source.attrs().to_vec(), rows)
        .expect("relabelled rows keep the arity");
    let mut db = Database::new();
    db.add_relation(relation).expect("one relation, one name");
    db
}

/// How a statement ranks its answers (weights are the attribute values).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// `ORDER BY x + y`.
    Sum,
    /// `ORDER BY x, y`.
    Lex,
}

/// The two columns of `AuthorPapers`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Col {
    Aid,
    Pid,
}

impl Col {
    pub fn name(self) -> &'static str {
        match self {
            Col::Aid => "aid",
            Col::Pid => "pid",
        }
    }

    pub fn index(self) -> usize {
        match self {
            Col::Aid => 0,
            Col::Pid => 1,
        }
    }
}

/// One membership chain: `atoms` self-join copies `M1..Mn`, projecting
/// column `first` of `M1` and column `last` of `Mn` (of `M3` when
/// closed, the vertex opposite `M1` on a six-cycle and the paper's
/// projection for the four-cycle).
#[derive(Clone, Debug)]
pub struct Chain {
    /// Alias prefix of the atoms (`M1..Mn`). The branches of a union use
    /// different ones: the SQL planner names a union's columns after its
    /// first branch, and they must not collide with later branches' atoms.
    pub alias: char,
    pub atoms: usize,
    pub closed: bool,
    pub last: Col,
    /// `AND M1.aid = c`.
    pub point: Option<Value>,
}

impl Chain {
    pub fn hop(atoms: usize) -> Chain {
        Chain {
            alias: 'M',
            atoms,
            closed: false,
            // An odd chain ends on a paper, an even one on an author.
            last: if atoms % 2 == 1 { Col::Pid } else { Col::Aid },
            point: None,
        }
    }

    pub fn cycle(atoms: usize) -> Chain {
        assert!(
            atoms >= 4 && atoms.is_multiple_of(2),
            "cycles alternate aid and pid"
        );
        Chain {
            alias: 'M',
            atoms,
            closed: true,
            last: Col::Aid,
            point: None,
        }
    }

    /// The 1-based atom whose column is the second projected one.
    pub fn last_atom(&self) -> usize {
        if self.closed {
            3
        } else {
            self.atoms
        }
    }

    /// `SELECT DISTINCT … FROM … WHERE …` without an `ORDER BY`.
    fn select_sql(&self) -> String {
        let m = self.alias;
        let from: Vec<String> = (1..=self.atoms)
            .map(|i| format!("{RELATION} AS {m}{i}"))
            .collect();
        let mut conds: Vec<String> = (1..self.atoms)
            .map(|i| {
                let col = if i % 2 == 1 { "pid" } else { "aid" };
                format!("{m}{i}.{col} = {m}{}.{col}", i + 1)
            })
            .collect();
        if self.closed {
            conds.push(format!("{m}{}.aid = {m}1.aid", self.atoms));
        }
        if let Some(c) = self.point {
            conds.push(format!("{m}1.aid = {c}"));
        }
        format!(
            "SELECT DISTINCT {} FROM {} WHERE {}",
            self.columns().join(", "),
            from.join(", "),
            conds.join(" AND ")
        )
    }

    /// The two projected columns, as the SQL names them.
    fn columns(&self) -> [String; 2] {
        let m = self.alias;
        [
            format!("{m}1.aid"),
            format!("{m}{}.{}", self.last_atom(), self.last.name()),
        ]
    }

    fn order_sql(&self, order: Order) -> String {
        let [x, y] = self.columns();
        match order {
            Order::Sum => format!("ORDER BY {x} + {y}"),
            Order::Lex => format!("ORDER BY {x}, {y}"),
        }
    }

    /// The variables `(aid, pid)` atom `i` (1-based) binds: `M1(a1,p1)`,
    /// `M2(a2,p1)`, `M3(a2,p2)`, `M4(a3,p2)`, …; a closed chain's last atom
    /// returns to `a1`.
    fn vars(&self, i: usize) -> [String; 2] {
        let a = if self.closed && i == self.atoms {
            1
        } else {
            i / 2 + 1
        };
        [format!("a{a}"), format!("p{}", i.div_ceil(2))]
    }

    /// The equivalent query, built directly; its projection is always
    /// named `(x, y)`, so the branches of a union agree. `M1` reads
    /// relation `first_rel` and the atom holding the second projected
    /// column reads `last_rel`, so the oracle can restrict those two (see
    /// `oracle::Reference`); every other atom reads [`RELATION`].
    pub fn query(&self, first_rel: &str, last_rel: &str) -> JoinProjectQuery {
        let x = self.vars(1)[0].clone();
        let y = self.vars(self.last_atom())[self.last.index()].clone();
        let rename = |v: String| {
            if v == x {
                "x".to_string()
            } else if v == y {
                "y".to_string()
            } else {
                v
            }
        };
        let mut b = QueryBuilder::new();
        for i in 1..=self.atoms {
            let rel = if i == 1 {
                first_rel
            } else if i == self.last_atom() {
                last_rel
            } else {
                RELATION
            };
            b = b.atom(format!("M{i}"), rel, self.vars(i).map(rename));
        }
        b.project(["x", "y"])
            .build()
            .expect("a chain is a valid query")
    }
}

/// One statement of a workload: what the server is sent, and what the
/// oracle evaluates instead.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// Statement class, the suffix of per-class metrics (`sum2`, `lex2`, …).
    pub class: &'static str,
    /// Catalog name of the dataset it runs on.
    pub db: &'static str,
    pub sql: String,
    pub order: Order,
    /// One chain, or the branches of a `UNION`.
    pub branches: Vec<Chain>,
    /// Pages a session on this statement fetches, where the workload's
    /// own count does not fit.
    pub pages: Option<usize>,
}

impl Stmt {
    pub fn single(class: &'static str, db: &'static str, chain: Chain, order: Order) -> Stmt {
        let sql = format!("{} {}", chain.select_sql(), chain.order_sql(order));
        Stmt {
            class,
            db,
            sql,
            order,
            branches: vec![chain],
            pages: None,
        }
    }

    /// `branch₁ UNION branch₂ … ORDER BY` (ordered by the last branch's
    /// column names, as the SQL front-end expects).
    pub fn union(class: &'static str, db: &'static str, branches: Vec<Chain>) -> Stmt {
        let selects: Vec<String> = branches.iter().map(Chain::select_sql).collect();
        let order = branches
            .last()
            .expect("a union has branches")
            .order_sql(Order::Sum);
        Stmt {
            class,
            db,
            sql: format!("{} {order}", selects.join(" UNION ")),
            order: Order::Sum,
            branches,
            pages: None,
        }
    }

    pub fn with_pages(mut self, pages: usize) -> Stmt {
        self.pages = Some(pages);
        self
    }

    pub fn sum2(db: &'static str) -> Stmt {
        Stmt::single("sum2", db, Chain::hop(2), Order::Sum)
    }

    pub fn lex2(db: &'static str) -> Stmt {
        Stmt::single("lex2", db, Chain::hop(2), Order::Lex)
    }

    pub fn sum3(db: &'static str) -> Stmt {
        Stmt::single("sum3", db, Chain::hop(3), Order::Sum)
    }

    pub fn sum4(db: &'static str) -> Stmt {
        Stmt::single("sum4", db, Chain::hop(4), Order::Sum)
    }

    /// The selective 2-hop `… AND M1.aid = c`.
    pub fn point(db: &'static str, c: Value) -> Stmt {
        let chain = Chain {
            point: Some(c),
            ..Chain::hop(2)
        };
        Stmt::single("point", db, chain, Order::Sum)
    }

    /// 2-hop ∪ 3-hop.
    pub fn union23(db: &'static str) -> Stmt {
        let three = Chain {
            alias: 'N',
            ..Chain::hop(3)
        };
        Stmt::union("union", db, vec![Chain::hop(2), three])
    }

    pub fn cycle(class: &'static str, db: &'static str, atoms: usize) -> Stmt {
        Stmt::single(class, db, Chain::cycle(atoms), Order::Sum)
    }
}

/// `n` distinct author ids of `db`, evenly spaced over the sorted ids —
/// the constants of the point statements.
pub fn point_constants(db: &Database, n: usize) -> Vec<Value> {
    let rel = db.relation(RELATION).expect("dataset relation");
    let mut aids: Vec<Value> = rel.iter().map(|t| t[0]).collect();
    aids.sort_unstable();
    aids.dedup();
    let n = n.min(aids.len());
    (0..n).map(|i| aids[i * aids.len() / n]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_render_the_sql_the_front_end_accepts() {
        assert_eq!(
            Stmt::sum2("mid").sql,
            "SELECT DISTINCT M1.aid, M2.aid FROM AuthorPapers AS M1, AuthorPapers AS M2 \
             WHERE M1.pid = M2.pid ORDER BY M1.aid + M2.aid"
        );
        assert!(Stmt::lex2("mid").sql.ends_with("ORDER BY M1.aid, M2.aid"));
        assert!(Stmt::sum3("mid")
            .sql
            .contains("SELECT DISTINCT M1.aid, M3.pid FROM"));
        assert!(Stmt::point("mid", 7).sql.contains("AND M1.aid = 7 ORDER"));
        let six = Stmt::cycle("cyc6", "cyc", 6).sql;
        assert!(six.contains("M5.pid = M6.pid AND M6.aid = M1.aid"));
        assert!(six.contains("SELECT DISTINCT M1.aid, M3.aid"));
        assert!(Stmt::union23("mid").sql.contains(" UNION SELECT DISTINCT"));
    }

    #[test]
    fn chain_variables_alternate_and_close() {
        let six = Chain::cycle(6);
        let vars: Vec<[String; 2]> = (1..=6).map(|i| six.vars(i)).collect();
        let flat: Vec<String> = vars.iter().map(|v| format!("{}{}", v[0], v[1])).collect();
        assert_eq!(flat, ["a1p1", "a2p1", "a2p2", "a3p2", "a3p3", "a1p3"]);
        let q = six.query(RELATION, RELATION);
        assert_eq!(q.atoms().len(), 6);
        let proj: Vec<&str> = q.projection().iter().map(|a| a.as_str()).collect();
        assert_eq!(proj, ["x", "y"]);
        let vars: Vec<&str> = q.atoms()[2].vars.iter().map(|a| a.as_str()).collect();
        assert_eq!(vars, ["y", "p2"], "M3.aid is the second projected column");
        let three = Chain::hop(3).query("F", "L");
        assert_eq!(three.atoms()[0].relation, "F");
        assert_eq!(three.atoms()[2].relation, "L");
        let vars: Vec<&str> = three.atoms()[2].vars.iter().map(|a| a.as_str()).collect();
        assert_eq!(vars, ["a2", "y"]);
    }

    #[test]
    fn datasets_repeat_for_a_seed_and_differ_across_seeds() {
        let a = generate("mid", &Sizes::SMOKE, 42);
        let b = generate("mid", &Sizes::SMOKE, 42);
        let c = generate("mid", &Sizes::SMOKE, 7);
        let rows = |db: &Database| -> Vec<Vec<Value>> {
            db.relation(RELATION)
                .unwrap()
                .iter()
                .map(|t| t.to_vec())
                .collect()
        };
        assert_eq!(rows(&a), rows(&b));
        assert_ne!(rows(&a), rows(&c));
        // Seeds relabel affinely: same shape, different values.
        let shape = |db: &Database| {
            let mut r = rows(db);
            r.iter_mut()
                .for_each(|t| t.iter_mut().for_each(|v| *v /= STRIDE));
            r.sort();
            r
        };
        assert_eq!(shape(&a), shape(&c));
        let consts = point_constants(&a, 16);
        assert_eq!(consts.len(), 16);
        assert!(consts.windows(2).all(|w| w[0] < w[1]));
    }
}
