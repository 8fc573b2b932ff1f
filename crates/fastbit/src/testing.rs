//! The tree-walk evaluator, kept as the test oracle.
//!
//! [`evaluate_with_strategy`] evaluates a [`QueryExpr`] by recursing over the
//! expression and combining one WAH [`Selection`] per predicate. It is the
//! straightforward reading of the query semantics, so the differential
//! suites hold the product's compiled engine ([`crate::compile`]) and the
//! chunked engine ([`crate::par`]) to it. No product path calls it.

use crate::error::Result;
use crate::query::{evaluate_predicate, ColumnProvider, ExecStrategy, QueryExpr};
use crate::selection::Selection;

/// Evaluate `expr` over `provider` with the given strategy.
pub fn evaluate_with_strategy(
    expr: &QueryExpr,
    provider: &impl ColumnProvider,
    strategy: ExecStrategy,
) -> Result<Selection> {
    match expr {
        QueryExpr::Pred(p) => evaluate_predicate(p, provider, strategy),
        QueryExpr::And(v) => {
            let mut acc: Option<Selection> = None;
            for e in v {
                let s = evaluate_with_strategy(e, provider, strategy)?;
                acc = Some(match acc {
                    None => s,
                    Some(prev) => prev.and(&s)?,
                });
            }
            Ok(acc.unwrap_or_else(|| Selection::all(provider.num_rows())))
        }
        QueryExpr::Or(v) => {
            let mut acc: Option<Selection> = None;
            for e in v {
                let s = evaluate_with_strategy(e, provider, strategy)?;
                acc = Some(match acc {
                    None => s,
                    Some(prev) => prev.or(&s)?,
                });
            }
            Ok(acc.unwrap_or_else(|| Selection::none(provider.num_rows())))
        }
        QueryExpr::Not(e) => Ok(evaluate_with_strategy(e, provider, strategy)?.not()),
    }
}
