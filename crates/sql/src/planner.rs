//! Planning: turn a parsed [`Statement`] into a ranked-enumeration plan.
//!
//! The planner resolves table aliases and column references against a
//! [`Database`] schema, unifies columns connected by equality join
//! predicates into query variables (natural-join encoding), pushes constant
//! selections down into derived relations, and maps the `ORDER BY` clause
//! onto one of the library's ranking functions.

use crate::ast::{ColumnRef, OrderBy, Predicate, SelectStatement, Statement};
use crate::error::SqlError;
use rankedenum_core::{Algorithm, BranchPlan};
use re_query::{Atom, JoinProjectQuery, UnionQuery};
use re_ranking::Direction;
use re_storage::{Attr, Database, Relation, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A constant or column-equality selection pushed into one `FROM` entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PushedFilter {
    /// Keep tuples whose column at `position` equals `value`.
    ValueEq {
        /// Column position in the base relation.
        position: usize,
        /// Required value.
        value: Value,
    },
    /// Keep tuples whose columns at the two positions are equal
    /// (a selection like `R.a = R.b` inside a single alias).
    ColumnEq {
        /// First column position.
        left: usize,
        /// Second column position.
        right: usize,
    },
}

/// A relation derived from a base relation by pushed-down selections. The
/// planner gives every filtered `FROM` entry its own derived relation so
/// that self-joins with different filters per alias stay independent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DerivedRelation {
    /// Name the derived relation is registered under.
    pub name: String,
    /// Name of the base relation it is computed from.
    pub base: String,
    /// The selections to apply.
    pub filters: Vec<PushedFilter>,
}

impl DerivedRelation {
    /// Materialise the derived relation from the base relation.
    pub fn materialise(&self, base: &Relation) -> Relation {
        let mut out = Relation::new(self.name.clone(), base.attrs().to_vec());
        'rows: for t in base.iter() {
            for f in &self.filters {
                match *f {
                    PushedFilter::ValueEq { position, value } => {
                        if t[position] != value {
                            continue 'rows;
                        }
                    }
                    PushedFilter::ColumnEq { left, right } => {
                        if t[left] != t[right] {
                            continue 'rows;
                        }
                    }
                }
            }
            out.push_unchecked(t);
        }
        out
    }
}

/// The ranking requested by `ORDER BY`, resolved to query variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OrderSpec {
    /// Rank by the sum of the weights of these projection attributes.
    Sum(Vec<Attr>),
    /// Rank lexicographically by these attributes with per-attribute
    /// directions.
    Lex(Vec<(Attr, Direction)>),
}

/// The planned query: a single join-project query or a union of them.
#[derive(Clone, Debug)]
pub enum PlannedQuery {
    /// A single join-project query (Theorem 1 / Theorem 3 territory).
    Single(JoinProjectQuery),
    /// A union of join-project queries (Theorem 4).
    Union(UnionQuery),
}

/// The complete plan for a statement.
#[derive(Clone, Debug)]
pub struct SqlPlan {
    /// The logical query.
    pub query: PlannedQuery,
    /// The physical decision per branch — algorithm and join tree —
    /// aligned with [`SqlPlan::branch_queries`]. Made here, once; OPEN,
    /// `EXPLAIN` and the reply label read it.
    pub branches: Vec<BranchPlan>,
    /// Derived (filtered) relations that must exist before execution.
    pub derived: Vec<DerivedRelation>,
    /// The requested ordering, if any.
    pub order: Option<OrderSpec>,
    /// The requested `LIMIT`, if any.
    pub limit: Option<usize>,
    /// User-facing output column names, in output order.
    pub output_columns: Vec<String>,
}

impl SqlPlan {
    /// The statement's join-project branches: the query itself for a
    /// single statement, the union's branches otherwise.
    pub fn branch_queries(&self) -> &[JoinProjectQuery] {
        match &self.query {
            PlannedQuery::Single(q) => std::slice::from_ref(q),
            PlannedQuery::Union(u) => u.branches(),
        }
    }

    /// The algorithm a cursor on this plan runs: the branch's own for a
    /// single statement, the ranked merge for a union.
    pub fn algorithm(&self) -> Algorithm {
        match &self.query {
            PlannedQuery::Single(_) => self.branches[0].algorithm(),
            PlannedQuery::Union(_) => Algorithm::UnionMerge,
        }
    }

    /// The minimal working set for executing this plan: `None` when the
    /// plan has no derived relations (execute directly against `db`, no
    /// copy at all); otherwise a database holding the materialised derived
    /// relations plus the base relations the plan's atoms reference,
    /// shared with `db` rather than copied — open cost scales with the
    /// filtered relations, not with `db`.
    pub fn working_database(&self, db: &Database) -> Result<Option<Database>, SqlError> {
        if self.derived.is_empty() {
            return Ok(None);
        }
        let mut out = Database::new();
        for d in &self.derived {
            let base = db.relation(&d.base)?;
            out.set_relation(d.materialise(base));
        }
        for atom in self.branch_queries().iter().flat_map(|q| q.atoms()) {
            if !out.contains(&atom.relation) {
                out.share_relation(db.relation_arc(&atom.relation)?);
            }
        }
        Ok(Some(out))
    }
}

/// Whether `order` ranks lexicographically.
fn is_lex(order: &Option<OrderSpec>) -> bool {
    matches!(order, Some(OrderSpec::Lex(_)))
}

/// One planned `SELECT` branch, before the statement-level steps (union
/// assembly, the per-branch physical plans).
struct PlannedSelect {
    query: JoinProjectQuery,
    derived: Vec<DerivedRelation>,
    order: Option<OrderSpec>,
    limit: Option<usize>,
    output_columns: Vec<String>,
}

/// Plan a parsed statement against a database schema.
pub fn plan(statement: &Statement, db: &Database) -> Result<SqlPlan, SqlError> {
    let first = plan_select(&statement.branches[0], db, None, 0)?;
    if statement.branches.len() == 1 {
        return Ok(SqlPlan {
            branches: vec![BranchPlan::of(&first.query, is_lex(&first.order))?],
            query: PlannedQuery::Single(first.query),
            derived: first.derived,
            order: first.order,
            limit: first.limit,
            output_columns: first.output_columns,
        });
    }

    // Union: later branches are forced to reuse the first branch's
    // projection attribute names so that the branch outputs are union
    // compatible at the attribute level.
    let forced: Vec<Attr> = first.query.projection().to_vec();
    let mut queries = Vec::with_capacity(statement.branches.len());
    let mut derived = first.derived;
    let mut order = first.order;
    let mut limit = first.limit;
    queries.push(first.query);
    for (i, select) in statement.branches.iter().enumerate().skip(1) {
        if select.select.len() != forced.len() {
            return Err(SqlError::Unsupported(format!(
                "UNION branch {} selects {} columns but the first branch selects {}",
                i + 1,
                select.select.len(),
                forced.len()
            )));
        }
        let planned = plan_select(select, db, Some(&forced), i)?;
        queries.push(planned.query);
        derived.extend(planned.derived);
        // ORDER BY / LIMIT written on a later branch applies to the whole
        // union (the common SQL reading once the statement is normalised).
        if planned.order.is_some() {
            order = planned.order;
        }
        if planned.limit.is_some() {
            limit = planned.limit;
        }
    }
    let branches = queries
        .iter()
        .map(|q| BranchPlan::of(q, is_lex(&order)))
        .collect::<Result<_, _>>()?;
    Ok(SqlPlan {
        output_columns: first.output_columns,
        query: PlannedQuery::Union(UnionQuery::new(queries)?),
        branches,
        derived,
        order,
        limit,
    })
}

/// Union–find over `(from index, column position)` nodes.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

struct Resolver<'a> {
    select: &'a SelectStatement,
    /// Effective alias of each `FROM` entry.
    aliases: Vec<String>,
    /// Schema (column names) of each `FROM` entry's base relation.
    schemas: Vec<Vec<Attr>>,
    /// Flat node offsets: node id of `(from, pos)` is `offsets[from] + pos`.
    offsets: Vec<usize>,
    /// Index of the union branch being planned (keeps the derived-relation
    /// names of different branches apart).
    branch_tag: usize,
}

impl<'a> Resolver<'a> {
    fn new(
        select: &'a SelectStatement,
        db: &Database,
        branch_tag: usize,
    ) -> Result<Self, SqlError> {
        if select.from.is_empty() {
            return Err(SqlError::Unsupported(
                "the FROM clause must list at least one table".into(),
            ));
        }
        let mut aliases = Vec::with_capacity(select.from.len());
        let mut schemas = Vec::with_capacity(select.from.len());
        let mut seen = BTreeSet::new();
        for t in &select.from {
            let alias = t.effective_alias().to_string();
            if !seen.insert(alias.clone()) {
                return Err(SqlError::Resolution(format!(
                    "duplicate table alias `{alias}` in FROM clause"
                )));
            }
            let rel = db
                .relation(&t.table)
                .map_err(|_| SqlError::Resolution(format!("unknown table `{}`", t.table)))?;
            aliases.push(alias);
            schemas.push(rel.attrs().to_vec());
        }
        let mut offsets = Vec::with_capacity(schemas.len());
        let mut total = 0;
        for s in &schemas {
            offsets.push(total);
            total += s.len();
        }
        Ok(Resolver {
            select,
            aliases,
            schemas,
            offsets,
            branch_tag,
        })
    }

    fn node_count(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0) + self.schemas.last().map_or(0, |s| s.len())
    }

    fn node(&self, from: usize, pos: usize) -> usize {
        self.offsets[from] + pos
    }

    /// Resolve a column reference to `(from index, column position)`.
    fn resolve(&self, col: &ColumnRef) -> Result<(usize, usize), SqlError> {
        match &col.table {
            Some(alias) => {
                let from = self
                    .aliases
                    .iter()
                    .position(|a| a == alias)
                    .ok_or_else(|| {
                        SqlError::Resolution(format!(
                            "unknown table alias `{alias}` in `{}`",
                            col.display()
                        ))
                    })?;
                let pos = self.schemas[from]
                    .iter()
                    .position(|a| a.as_str() == col.column)
                    .ok_or_else(|| {
                        SqlError::Resolution(format!(
                            "table `{alias}` has no column `{}`",
                            col.column
                        ))
                    })?;
                Ok((from, pos))
            }
            None => {
                let mut hits = Vec::new();
                for (from, schema) in self.schemas.iter().enumerate() {
                    if let Some(pos) = schema.iter().position(|a| a.as_str() == col.column) {
                        hits.push((from, pos));
                    }
                }
                match hits.len() {
                    0 => Err(SqlError::Resolution(format!(
                        "no table in the FROM clause has a column `{}`",
                        col.column
                    ))),
                    1 => Ok(hits[0]),
                    _ => Err(SqlError::Resolution(format!(
                        "column `{}` is ambiguous; qualify it with a table alias",
                        col.column
                    ))),
                }
            }
        }
    }

    fn plan(&self, forced_projection: Option<&[Attr]>) -> Result<PlannedSelect, SqlError> {
        let select = self.select;
        if !select.distinct {
            return Err(SqlError::Unsupported(
                "only SELECT DISTINCT queries are supported (the enumeration \
                 semantics of join-project queries are set semantics)"
                    .into(),
            ));
        }

        // 1. Classify predicates: cross-alias equalities drive variable
        //    unification; same-alias equalities and constant comparisons are
        //    pushed down as selections.
        let mut uf = UnionFind::new(self.node_count());
        let mut pushed: BTreeMap<usize, Vec<PushedFilter>> = BTreeMap::new();
        for p in &select.predicates {
            match p {
                Predicate::ColumnEq(l, r) => {
                    let (lf, lp) = self.resolve(l)?;
                    let (rf, rp) = self.resolve(r)?;
                    if lf == rf {
                        if lp != rp {
                            pushed.entry(lf).or_default().push(PushedFilter::ColumnEq {
                                left: lp,
                                right: rp,
                            });
                        }
                    } else {
                        uf.union(self.node(lf, lp), self.node(rf, rp));
                    }
                }
                Predicate::ValueEq(c, v) => {
                    let (f, p) = self.resolve(c)?;
                    pushed.entry(f).or_default().push(PushedFilter::ValueEq {
                        position: p,
                        value: *v,
                    });
                }
            }
        }

        // 2. Resolve the select list and name the variable classes.
        let mut class_name: BTreeMap<usize, Attr> = BTreeMap::new();
        let mut output_columns = Vec::with_capacity(select.select.len());
        let mut projection: Vec<Attr> = Vec::with_capacity(select.select.len());
        for (i, item) in select.select.iter().enumerate() {
            let (f, p) = self.resolve(item)?;
            let class = uf_find(&mut uf, self.node(f, p));
            let name: Attr = match forced_projection {
                Some(names) => names[i].clone(),
                None => Attr::new(item.display()),
            };
            // Two select items in the same class keep the first name; the
            // projection below deduplicates the column.
            class_name.entry(class).or_insert_with(|| name.clone());
            output_columns.push(item.display());
            let canonical = class_name[&class].clone();
            if !projection.contains(&canonical) {
                projection.push(canonical);
            }
        }
        // Reject duplicate output names that map to *different* classes.
        let mut seen_names: BTreeMap<Attr, usize> = BTreeMap::new();
        for (i, item) in select.select.iter().enumerate() {
            let (f, p) = self.resolve(item)?;
            let class = uf_find(&mut uf, self.node(f, p));
            let name = match forced_projection {
                Some(names) => names[i].clone(),
                None => Attr::new(item.display()),
            };
            if let Some(&prev) = seen_names.get(&name) {
                if prev != class {
                    return Err(SqlError::Resolution(format!(
                        "select list uses the name `{name}` for two different columns"
                    )));
                }
            } else {
                seen_names.insert(name, class);
            }
        }

        // 3. Name every remaining class and build the atoms.
        let mut derived: Vec<DerivedRelation> = Vec::new();
        let mut atoms = Vec::with_capacity(select.from.len());
        for (f, table) in select.from.iter().enumerate() {
            let relation_name = if let Some(filters) = pushed.get(&f) {
                let name = format!(
                    "{}__filtered_{}_{}",
                    table.table, self.aliases[f], self.branch_tag
                );
                derived.push(DerivedRelation {
                    name: name.clone(),
                    base: table.table.clone(),
                    filters: filters.clone(),
                });
                name
            } else {
                table.table.clone()
            };
            let mut vars = Vec::with_capacity(self.schemas[f].len());
            for p in 0..self.schemas[f].len() {
                let class = uf_find(&mut uf, self.node(f, p));
                if !class_name.contains_key(&class) {
                    let mut name = format!("{}.{}", self.aliases[f], self.schemas[f][p].as_str());
                    // A later UNION branch names its selected classes after
                    // the first branch's projection, which may spell this
                    // very `alias.col`; `#` cannot occur in an identifier.
                    if class_name.values().any(|taken| taken.as_str() == name) {
                        name = format!("{name}#{}", self.branch_tag);
                    }
                    class_name.insert(class, Attr::new(name));
                }
                vars.push(class_name[&class].clone());
            }
            // Two columns of one atom in the same class would repeat a
            // variable; that only happens when a same-alias equality was
            // *also* written across aliases in a cycle, which the
            // join-project model cannot express.
            let distinct: BTreeSet<&Attr> = vars.iter().collect();
            if distinct.len() != vars.len() {
                return Err(SqlError::Unsupported(format!(
                    "the WHERE clause forces two columns of `{}` to be the same \
                     variable; rewrite the selection as `{0}.col1 = {0}.col2`",
                    self.aliases[f]
                )));
            }
            atoms.push(Atom::new(self.aliases[f].clone(), relation_name, vars));
        }

        let query = JoinProjectQuery::new(atoms, projection)?;

        // 4. ORDER BY: every referenced column must resolve to a projected
        //    variable (the paper's ranking functions are defined over the
        //    projection attributes).
        let order = match &select.order_by {
            None => None,
            Some(OrderBy::Sum(cols)) => {
                let attrs = cols
                    .iter()
                    .map(|c| self.order_attr(c, &mut uf, &class_name, &query))
                    .collect::<Result<Vec<_>, _>>()?;
                Some(OrderSpec::Sum(attrs))
            }
            Some(OrderBy::Lex(items)) => {
                let attrs = items
                    .iter()
                    .map(|(c, d)| {
                        self.order_attr(c, &mut uf, &class_name, &query)
                            .map(|a| (a, *d))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Some(OrderSpec::Lex(attrs))
            }
        };

        Ok(PlannedSelect {
            query,
            derived,
            order,
            limit: select.limit,
            output_columns,
        })
    }

    fn order_attr(
        &self,
        col: &ColumnRef,
        uf: &mut UnionFind,
        class_name: &BTreeMap<usize, Attr>,
        query: &JoinProjectQuery,
    ) -> Result<Attr, SqlError> {
        let (f, p) = self.resolve(col)?;
        let class = uf.find(self.node(f, p));
        let attr = class_name.get(&class).cloned().ok_or_else(|| {
            SqlError::Unsupported(format!(
                "ORDER BY column `{}` is not part of the select list",
                col.display()
            ))
        })?;
        if !query.is_projected(&attr) {
            return Err(SqlError::Unsupported(format!(
                "ORDER BY column `{}` is not part of the select list; the ranking \
                 function must be defined over the projection attributes",
                col.display()
            )));
        }
        Ok(attr)
    }
}

fn uf_find(uf: &mut UnionFind, node: usize) -> usize {
    uf.find(node)
}

fn plan_select(
    select: &SelectStatement,
    db: &Database,
    forced_projection: Option<&[Attr]>,
    branch_tag: usize,
) -> Result<PlannedSelect, SqlError> {
    Resolver::new(select, db, branch_tag)?.plan(forced_projection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use re_storage::attr::attrs;

    fn dblp_db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "AuthorPapers",
                attrs(["aid", "pid"]),
                vec![vec![1, 10], vec![2, 10], vec![3, 11]],
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples(
                "Paper",
                attrs(["pid", "year", "is_research"]),
                vec![vec![10, 2020, 1], vec![11, 2021, 0]],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn plan_sql(sql: &str) -> Result<SqlPlan, SqlError> {
        let db = dblp_db();
        plan(&parse(sql)?, &db)
    }

    #[test]
    fn two_hop_plan_builds_expected_query() {
        let p = plan_sql(
            "SELECT DISTINCT AP1.aid, AP2.aid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
             WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid LIMIT 3",
        )
        .unwrap();
        let PlannedQuery::Single(q) = &p.query else {
            panic!("expected single query")
        };
        assert_eq!(q.atoms().len(), 2);
        assert_eq!(q.projection().len(), 2);
        assert!(!q.is_full());
        assert_eq!(p.limit, Some(3));
        assert_eq!(p.output_columns, vec!["AP1.aid", "AP2.aid"]);
        assert!(matches!(p.order, Some(OrderSpec::Sum(ref v)) if v.len() == 2));
        assert!(p.derived.is_empty());
        // The joined pid columns share one variable.
        let shared: BTreeSet<_> = q.atoms()[0]
            .var_set()
            .intersection(&q.atoms()[1].var_set())
            .cloned()
            .collect();
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn constant_filters_become_derived_relations() {
        let p = plan_sql(
            "SELECT DISTINCT AP1.aid FROM AuthorPapers AS AP1, Paper AS P \
             WHERE AP1.pid = P.pid AND P.is_research = TRUE",
        )
        .unwrap();
        assert_eq!(p.derived.len(), 1);
        let d = &p.derived[0];
        assert_eq!(d.base, "Paper");
        assert_eq!(
            d.filters,
            vec![PushedFilter::ValueEq {
                position: 2,
                value: 1
            }]
        );
        let PlannedQuery::Single(q) = &p.query else {
            panic!()
        };
        assert_eq!(q.atoms()[1].relation, d.name);
    }

    #[test]
    fn derived_relation_materialise_filters_rows() {
        let db = dblp_db();
        let d = DerivedRelation {
            name: "Paper__f".into(),
            base: "Paper".into(),
            filters: vec![PushedFilter::ValueEq {
                position: 2,
                value: 1,
            }],
        };
        let filtered = d.materialise(db.relation("Paper").unwrap());
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered.tuple(0), &[10, 2020, 1]);
    }

    #[test]
    fn column_eq_filter_within_one_alias() {
        let p = plan_sql("SELECT DISTINCT P.pid FROM Paper AS P WHERE P.pid = P.year").unwrap();
        assert_eq!(
            p.derived[0].filters,
            vec![PushedFilter::ColumnEq { left: 0, right: 1 }]
        );
    }

    #[test]
    fn bare_columns_resolve_when_unambiguous() {
        let p = plan_sql("SELECT DISTINCT year FROM Paper ORDER BY year").unwrap();
        assert_eq!(p.output_columns, vec!["year"]);
        assert!(matches!(p.order, Some(OrderSpec::Lex(ref v)) if v.len() == 1));
    }

    #[test]
    fn ambiguous_bare_column_is_rejected() {
        let err = plan_sql(
            "SELECT DISTINCT pid FROM AuthorPapers AS AP, Paper AS P WHERE AP.pid = P.pid",
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::Resolution(ref m) if m.contains("ambiguous")));
    }

    #[test]
    fn unknown_table_alias_and_column_are_rejected() {
        assert!(matches!(
            plan_sql("SELECT DISTINCT X.aid FROM AuthorPapers AS AP").unwrap_err(),
            SqlError::Resolution(_)
        ));
        assert!(matches!(
            plan_sql("SELECT DISTINCT AP.nope FROM AuthorPapers AS AP").unwrap_err(),
            SqlError::Resolution(_)
        ));
        assert!(matches!(
            plan_sql("SELECT DISTINCT a FROM NoSuchTable").unwrap_err(),
            SqlError::Resolution(_)
        ));
    }

    #[test]
    fn duplicate_alias_is_rejected() {
        let err =
            plan_sql("SELECT DISTINCT AP.aid FROM AuthorPapers AS AP, Paper AS AP").unwrap_err();
        assert!(matches!(err, SqlError::Resolution(ref m) if m.contains("duplicate")));
    }

    #[test]
    fn non_distinct_select_is_unsupported() {
        let err = plan_sql("SELECT aid FROM AuthorPapers").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(ref m) if m.contains("DISTINCT")));
    }

    #[test]
    fn order_by_non_selected_column_is_unsupported() {
        let err = plan_sql("SELECT DISTINCT AP1.aid FROM AuthorPapers AS AP1 ORDER BY AP1.pid")
            .unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(ref m) if m.contains("select list")));
    }

    #[test]
    fn union_branches_share_projection_attrs() {
        let p = plan_sql(
            "SELECT DISTINCT AP1.aid FROM AuthorPapers AS AP1 \
             UNION SELECT DISTINCT P.pid FROM Paper AS P LIMIT 7",
        )
        .unwrap();
        let PlannedQuery::Union(u) = &p.query else {
            panic!("expected union plan")
        };
        assert_eq!(u.len(), 2);
        assert_eq!(u.branches()[0].projection(), u.branches()[1].projection());
        assert_eq!(p.limit, Some(7));
    }

    #[test]
    fn union_branch_columns_may_spell_the_first_branchs_output_names() {
        // The second branch selects its `pid` classes, which take the first
        // branch's names `AP1.aid` / `AP2.aid`; its own unselected `aid`
        // class must not be called `AP1.aid` as well.
        let p = plan_sql(
            "SELECT DISTINCT AP1.aid, AP2.aid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
             WHERE AP1.pid = AP2.pid \
             UNION \
             SELECT DISTINCT AP1.pid, AP2.pid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
             WHERE AP1.aid = AP2.aid",
        )
        .unwrap();
        let PlannedQuery::Union(u) = &p.query else {
            panic!("expected union plan")
        };
        let second = &u.branches()[1];
        assert_eq!(second.projection(), u.branches()[0].projection());
        assert_eq!(second.atoms()[0].vars, attrs(["AP1.aid#1", "AP1.aid"]));
        assert_eq!(second.atoms()[1].vars, attrs(["AP1.aid#1", "AP2.aid"]));
    }

    #[test]
    fn union_arity_mismatch_is_rejected() {
        let err = plan_sql(
            "SELECT DISTINCT AP1.aid FROM AuthorPapers AS AP1 \
             UNION SELECT DISTINCT P.pid, P.year FROM Paper AS P",
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(ref m) if m.contains("UNION")));
    }

    #[test]
    fn working_database_is_minimal() {
        let db = dblp_db();
        // No derived relations → no working copy at all.
        let p = plan_sql("SELECT DISTINCT AP1.aid FROM AuthorPapers AS AP1").unwrap();
        assert!(p.working_database(&db).unwrap().is_none());
        // With a pushed-down filter: the derived relation and the other
        // referenced base relation are present, the filtered-away base and
        // unreferenced relations are not.
        let p = plan_sql(
            "SELECT DISTINCT AP1.aid FROM AuthorPapers AS AP1, Paper AS P \
             WHERE AP1.pid = P.pid AND P.is_research = TRUE",
        )
        .unwrap();
        let working = p.working_database(&db).unwrap().unwrap();
        assert_eq!(
            working.relation(&p.derived[0].name).unwrap().len(),
            1,
            "the one research paper"
        );
        assert!(
            std::sync::Arc::ptr_eq(
                &working.relation_arc("AuthorPapers").unwrap(),
                &db.relation_arc("AuthorPapers").unwrap()
            ),
            "a referenced base relation is shared, not copied"
        );
        assert!(
            !working.contains("Paper"),
            "the unreferenced base of a derived relation is not held"
        );
    }
}
