//! Contracts: out-of-band communication from downstream consumers to the
//! reader, limiting the reader's scope of work.

use std::collections::BTreeSet;

use fastbit::QueryExpr;

/// What a downstream computation needs from the reader for one timestep.
#[derive(Debug, Clone, Default)]
pub struct Contract {
    /// Columns that must be read from disk.
    columns: BTreeSet<String>,
    /// Whether bitmap indexes should be loaded alongside the data.
    pub wants_indexes: bool,
}

impl Contract {
    /// An empty contract (reads nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Require a column to be read.
    pub fn require_column(&mut self, name: impl Into<String>) -> &mut Self {
        self.columns.insert(name.into());
        self
    }

    /// Require the columns a selection reads.
    pub fn restrict(&mut self, selection: &QueryExpr) -> &mut Self {
        self.columns.extend(selection.columns());
        self
    }

    /// Request bitmap indexes for the required columns.
    pub fn with_indexes(&mut self) -> &mut Self {
        self.wants_indexes = true;
        self
    }

    /// The full set of columns the reader must load.
    pub fn required_columns(&self) -> Vec<&str> {
        self.columns.iter().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbit::parse_query;

    #[test]
    fn query_columns_are_pulled_into_the_contract() {
        let mut c = Contract::new();
        c.require_column("x")
            .restrict(&parse_query("px > 1e9 && py < 1e8").unwrap())
            .with_indexes();
        assert_eq!(c.required_columns(), vec!["px", "py", "x"]);
        assert!(c.wants_indexes);
    }

    #[test]
    fn empty_contract_reads_nothing() {
        let c = Contract::new();
        assert!(c.required_columns().is_empty());
        assert!(!c.wants_indexes);
    }
}
