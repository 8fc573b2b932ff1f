//! In-memory columnar particle tables.

use crate::column::{Column, ColumnData};
use crate::error::{DataStoreError, Result};

/// The standard column set written by the laser-wakefield simulations studied
/// in the paper: position (`x`, `y`, `z`), momentum (`px`, `py`, `pz`), the
/// derived relative position `xrel(t) = x(t) - max(x(t))`, and the particle
/// identifier `id`.
pub const STANDARD_COLUMNS: [&str; 8] = ["x", "y", "z", "px", "py", "pz", "xrel", "id"];

/// A columnar table describing every particle of one timestep.
#[derive(Debug, Clone, Default)]
pub struct ParticleTable {
    columns: Vec<Column>,
    rows: usize,
}

impl ParticleTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a table from columns, validating that they all have the same
    /// number of rows.
    pub fn from_columns(columns: Vec<Column>) -> Result<Self> {
        let mut table = Self::new();
        for c in columns {
            table.add_column(c)?;
        }
        Ok(table)
    }

    /// Append a column.
    pub fn add_column(&mut self, column: Column) -> Result<()> {
        if self.columns.is_empty() {
            self.rows = column.len();
        } else if column.len() != self.rows {
            return Err(DataStoreError::LengthMismatch {
                expected: self.rows,
                found: column.len(),
                column: column.name,
            });
        }
        if self.column(&column.name).is_some() {
            return Err(DataStoreError::Format(format!(
                "duplicate column '{}'",
                column.name
            )));
        }
        self.columns.push(column);
        Ok(())
    }

    /// Number of particles (rows).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// All columns in insertion order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column names in insertion order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Float values of a named column.
    pub fn float_column(&self, name: &str) -> Result<&[f64]> {
        self.column(name)
            .and_then(|c| c.data.as_float())
            .ok_or_else(|| DataStoreError::UnknownColumn(name.to_string()))
    }

    /// Identifier values of a named column.
    pub fn id_column(&self, name: &str) -> Result<&[u64]> {
        self.column(name)
            .and_then(|c| c.data.as_id())
            .ok_or_else(|| DataStoreError::UnknownColumn(name.to_string()))
    }

    /// Total raw data size in bytes.
    pub fn byte_len(&self) -> usize {
        self.columns.iter().map(|c| c.data.byte_len()).sum()
    }

    /// Extract the rows listed in `rows` into a new table (the data-subsetting
    /// operation performed after a query identifies interesting particles).
    pub fn gather_rows(&self, rows: &[usize]) -> ParticleTable {
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let data = match &c.data {
                    ColumnData::Float(v) => ColumnData::Float(rows.iter().map(|&r| v[r]).collect()),
                    ColumnData::Id(v) => ColumnData::Id(rows.iter().map(|&r| v[r]).collect()),
                };
                Column {
                    name: c.name.clone(),
                    data,
                }
            })
            .collect();
        ParticleTable {
            columns,
            rows: rows.len(),
        }
    }

    /// Compute the derived column `xrel = x - max(x)` used by the paper to
    /// express positions relative to the moving simulation window.
    pub fn with_xrel(mut self) -> Result<ParticleTable> {
        let x = self.float_column("x")?;
        let max_x = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let xrel: Vec<f64> = x.iter().map(|&v| v - max_x).collect();
        // Replace an existing xrel column if present.
        self.columns.retain(|c| c.name != "xrel");
        self.add_column(Column::float("xrel", xrel))?;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ParticleTable {
        ParticleTable::from_columns(vec![
            Column::float("x", vec![1.0, 2.0, 3.0]),
            Column::float("px", vec![10.0, 20.0, 30.0]),
            Column::id("id", vec![100, 200, 300]),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_lookup() {
        let t = table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.float_column("px").unwrap(), &[10.0, 20.0, 30.0]);
        assert_eq!(t.id_column("id").unwrap(), &[100, 200, 300]);
        assert!(t.float_column("id").is_err(), "type mismatch is an error");
        assert!(t.float_column("nope").is_err());
        assert_eq!(t.byte_len(), 3 * 3 * 8);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let mut t = table();
        assert!(matches!(
            t.add_column(Column::float("bad", vec![1.0])),
            Err(DataStoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn duplicate_columns_rejected() {
        let mut t = table();
        assert!(t
            .add_column(Column::float("x", vec![0.0, 0.0, 0.0]))
            .is_err());
    }

    #[test]
    fn gather_rows_subsets_all_columns() {
        let t = table();
        let s = t.gather_rows(&[2, 0]);
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.float_column("x").unwrap(), &[3.0, 1.0]);
        assert_eq!(s.id_column("id").unwrap(), &[300, 100]);
    }

    #[test]
    fn xrel_is_relative_to_window_front() {
        let t = table().with_xrel().unwrap();
        assert_eq!(t.float_column("xrel").unwrap(), &[-2.0, -1.0, 0.0]);
        // Recomputing replaces rather than duplicates.
        let t = t.with_xrel().unwrap();
        assert_eq!(t.columns().iter().filter(|c| c.name == "xrel").count(), 1);
    }
}
