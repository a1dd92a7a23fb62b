//! The session catalog: table schemas, table data, and constraint
//! metadata. Implements both the analyzer/optimizer-facing
//! [`CatalogProvider`] and the physical planner's [`ExecTableSource`].
//! A name maps to one [`TableData`]: in-memory chunks or an opened block
//! file, never both.

use std::collections::HashMap;
use std::sync::Arc;

use sparkline_common::{Error, MemTable, Result, Row, Schema, SchemaRef};
use sparkline_physical::{ExecTableSource, TableData};
use sparkline_plan::{CatalogProvider, StaticCatalog};
use sparkline_storage::DiskTable;

/// In-memory catalog with data.
#[derive(Debug, Default)]
pub struct SessionCatalog {
    schemas: StaticCatalog,
    tables: HashMap<String, TableData>,
    /// Monotone mutation counter: bumped by every registration, drop,
    /// insert, and foreign-key declaration. Cached plans and results
    /// keyed on `(query, version)` are implicitly invalidated by any
    /// catalog change — the invalidation hook the multi-tenant query
    /// service's plan/result caches sit on.
    version: u64,
}

impl SessionCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The catalog's mutation version. Two reads returning the same value
    /// bracket a span with no registration/drop/insert/FK change, so any
    /// plan or result derived in between is still valid.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Register a table with its rows, validating every row against the
    /// schema (width, types, nullability). The rows become the table's
    /// column chunks one chunk at a time, each row validated, copied and
    /// dropped in one pass ([`MemTable::from_checked_rows`]). Replaces any
    /// same-named registration, in-memory or disk-resident.
    pub fn register_table(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        rows: Vec<Row>,
    ) -> Result<()> {
        let name = name.into();
        let table = MemTable::from_checked_rows(&schema, rows, |i, row| {
            validate_row(&name, &schema, i, row)
        })?;
        self.schemas.register_table(name.clone(), schema.into_ref());
        (self.tables).insert(name.to_ascii_lowercase(), TableData::Memory(table));
        self.version += 1;
        Ok(())
    }

    /// Register a disk-resident table (an opened block file): its schema
    /// enters the catalog like any table's, but its scan streams the
    /// file's blocks instead of copying rows into memory. Replaces any
    /// same-named registration, in-memory or disk-resident.
    pub fn register_disk_table(&mut self, name: impl Into<String>, table: Arc<DiskTable>) {
        let name = name.into();
        self.schemas.register_table(name.clone(), table.schema());
        (self.tables).insert(name.to_ascii_lowercase(), TableData::Disk(table));
        self.version += 1;
    }

    /// The in-memory table registered as `key` (lowercased), to be
    /// changed by `verb`: a disk-resident table is immutable, so changing
    /// one is a plan error.
    fn writable(&mut self, key: &str, name: &str, verb: &str) -> Result<&mut MemTable> {
        match self.tables.get_mut(key) {
            Some(TableData::Memory(table)) => Ok(table),
            Some(TableData::Disk(_)) => Err(Error::plan(format!(
                "table '{name}' is disk-resident; {verb} is only supported \
                 for in-memory tables"
            ))),
            None => Err(Error::internal(format!(
                "table '{name}' has a schema but no rows"
            ))),
        }
    }

    /// Append rows to a registered in-memory table, validating them
    /// against its schema. Disk-resident tables are immutable — inserting
    /// into one is a plan error. Returns the table's new row count.
    ///
    /// Queries already executing keep the snapshot they started with: the
    /// chunks are immutable, so a concurrent insert never mutates a scan
    /// mid-flight. Only the last chunk, when partly filled, is copied
    /// ([`MemTable::append`]).
    pub fn insert_rows(&mut self, name: &str, rows: Vec<Row>) -> Result<usize> {
        let key = name.to_ascii_lowercase();
        let schema = self
            .schemas
            .table_schema(&key)
            .ok_or_else(|| Error::plan(format!("no table named '{name}' to insert into")))?;
        let table = self.writable(&key, name, "INSERT")?;
        validate_rows(&key, &schema, &rows)?;
        table.append(rows);
        let len = table.len();
        self.version += 1;
        Ok(len)
    }

    /// Remove rows from a registered in-memory table by position
    /// (`positions` must be ascending and in bounds — the shape produced
    /// by a predicate scan). Like [`insert_rows`](Self::insert_rows),
    /// queries already executing keep the snapshot they started with; only
    /// the chunks holding a removed row are rewritten
    /// ([`MemTable::delete`]). Bumps the catalog version only
    /// when rows were actually removed, so a `DELETE` matching nothing
    /// retires no cached plan/result generation. Returns the number of
    /// removed rows.
    pub fn delete_rows(&mut self, name: &str, positions: &[usize]) -> Result<usize> {
        let key = name.to_ascii_lowercase();
        if self.schemas.table_schema(&key).is_none() {
            return Err(Error::plan(format!(
                "no table named '{name}' to delete from"
            )));
        }
        let table = self.writable(&key, name, "DELETE")?;
        let len = table.len();
        for pair in positions.windows(2) {
            if pair[0] >= pair[1] {
                return Err(Error::internal(
                    "delete positions must be ascending and distinct",
                ));
            }
        }
        if positions.last().is_some_and(|&p| p >= len) {
            return Err(Error::internal(format!(
                "delete position out of bounds for table '{name}' ({len} rows)"
            )));
        }
        if positions.is_empty() {
            return Ok(0);
        }
        table.delete(positions);
        self.version += 1;
        Ok(positions.len())
    }

    /// Declare a foreign key (used by the §5.4 skyline-join pushdown; see
    /// [`StaticCatalog::register_foreign_key`]). Both endpoints are
    /// validated against registered schemas before anything is recorded:
    /// an FK on a nonexistent table or column is a plan error and leaves
    /// the catalog version untouched, so no cached plan/result
    /// generation is retired by a declaration that changed nothing.
    pub fn register_foreign_key(
        &mut self,
        from_table: impl Into<String>,
        from_column: impl Into<String>,
        to_table: impl Into<String>,
        to_column: impl Into<String>,
    ) -> Result<()> {
        let (from_table, from_column) = (from_table.into(), from_column.into());
        let (to_table, to_column) = (to_table.into(), to_column.into());
        for (table, column) in [(&from_table, &from_column), (&to_table, &to_column)] {
            let schema = self.schemas.table_schema(table).ok_or_else(|| {
                Error::plan(format!("foreign key references unknown table '{table}'"))
            })?;
            if schema.index_of(None, column).is_err() {
                return Err(Error::plan(format!(
                    "foreign key references unknown column '{table}.{column}'"
                )));
            }
        }
        self.schemas
            .register_foreign_key(from_table, from_column, to_table, to_column);
        self.version += 1;
        Ok(())
    }

    /// Remove a table: its data (in-memory chunks or the disk handle), its
    /// schema, and every foreign key involving it — a dropped table must
    /// not linger in `table_names()` or be re-plannable.
    pub fn drop_table(&mut self, name: &str) -> bool {
        let key = name.to_ascii_lowercase();
        let had_data = self.tables.remove(&key).is_some();
        let had_schema = self.schemas.drop_table(&key);
        let existed = had_data || had_schema;
        if existed {
            self.version += 1;
        }
        existed
    }

    /// Registered table names (lowercased, sorted).
    pub fn table_names(&self) -> Vec<String> {
        self.schemas.table_names()
    }

    /// Number of rows in a table.
    pub fn table_row_count(&self, name: &str) -> Option<usize> {
        let table = self.tables.get(&name.to_ascii_lowercase());
        table.map(TableData::num_rows)
    }
}

/// Check rows against a schema: width, value types, NOT NULL constraints.
fn validate_rows(table: &str, schema: &Schema, rows: &[Row]) -> Result<()> {
    (rows.iter().enumerate())
        .try_for_each(|(row_idx, row)| validate_row(table, schema, row_idx, row))
}

/// Check row `row_idx` against a schema.
fn validate_row(table: &str, schema: &Schema, row_idx: usize, row: &Row) -> Result<()> {
    if row.width() != schema.len() {
        return Err(Error::plan(format!(
            "table '{table}': row {row_idx} has {} values, schema has {} columns",
            row.width(),
            schema.len()
        )));
    }
    for (value, field) in row.values().iter().zip(schema.fields()) {
        if value.is_null() {
            if !field.nullable() {
                return Err(Error::plan(format!(
                    "table '{table}': NULL in non-nullable column '{}' (row {row_idx})",
                    field.name()
                )));
            }
            continue;
        }
        if value.data_type() != field.data_type() {
            return Err(Error::plan(format!(
                "table '{table}': column '{}' expects {}, got {} (row {row_idx})",
                field.name(),
                field.data_type(),
                value.data_type()
            )));
        }
    }
    Ok(())
}

impl CatalogProvider for SessionCatalog {
    fn table_schema(&self, name: &str) -> Option<SchemaRef> {
        self.schemas.table_schema(name)
    }

    fn guarantees_partner(
        &self,
        left_table: &str,
        left_col: &str,
        right_table: &str,
        right_col: &str,
    ) -> bool {
        self.schemas
            .guarantees_partner(left_table, left_col, right_table, right_col)
    }
}

impl ExecTableSource for SessionCatalog {
    fn table(&self, name: &str) -> Option<TableData> {
        self.tables.get(&name.to_ascii_lowercase()).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::{DataType, Field, Value, CHUNK_ROWS};

    /// The in-memory table registered as `name`, if any.
    fn in_memory(cat: &SessionCatalog, name: &str) -> Option<MemTable> {
        match cat.table(name) {
            Some(TableData::Memory(table)) => Some(table),
            _ => None,
        }
    }

    /// The disk table registered as `name`, if any.
    fn on_disk(cat: &SessionCatalog, name: &str) -> Option<Arc<DiskTable>> {
        match cat.table(name) {
            Some(TableData::Disk(table)) => Some(table),
            _ => None,
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("price", DataType::Float64, true),
        ])
    }

    #[test]
    fn register_and_lookup() {
        let mut cat = SessionCatalog::new();
        cat.register_table(
            "T",
            schema(),
            vec![Row::new(vec![Value::Int64(1), Value::Float64(9.5)])],
        )
        .unwrap();
        assert!(cat.table_schema("t").is_some());
        assert_eq!(in_memory(&cat, "t").unwrap().len(), 1);
        assert_eq!(cat.table_row_count("T"), Some(1));
        assert_eq!(cat.table_names(), vec!["t"]);
    }

    #[test]
    fn rejects_wrong_width() {
        let mut cat = SessionCatalog::new();
        let err = cat
            .register_table("t", schema(), vec![Row::new(vec![Value::Int64(1)])])
            .unwrap_err();
        assert!(err.to_string().contains("has 1 values"), "{err}");
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut cat = SessionCatalog::new();
        let err = cat
            .register_table(
                "t",
                schema(),
                vec![Row::new(vec![Value::str("x"), Value::Null])],
            )
            .unwrap_err();
        assert!(err.to_string().contains("expects BIGINT"), "{err}");
    }

    #[test]
    fn rejects_null_in_non_nullable() {
        let mut cat = SessionCatalog::new();
        let err = cat
            .register_table(
                "t",
                schema(),
                vec![Row::new(vec![Value::Null, Value::Null])],
            )
            .unwrap_err();
        assert!(err.to_string().contains("non-nullable"), "{err}");
    }

    #[test]
    fn drop_table_works() {
        let mut cat = SessionCatalog::new();
        cat.register_table("t", schema(), vec![]).unwrap();
        assert!(cat.drop_table("T"));
        assert!(!cat.drop_table("t"));
        assert!(in_memory(&cat, "t").is_none());
    }

    #[test]
    fn drop_table_removes_schema_and_foreign_keys() {
        let mut cat = SessionCatalog::new();
        cat.register_table("t", schema(), vec![]).unwrap();
        cat.register_table("u", schema(), vec![]).unwrap();
        cat.register_foreign_key("t", "id", "u", "id").unwrap();
        assert!(cat.drop_table("t"));
        // Regression: the schema used to survive the drop, so the table
        // still appeared in table_names() and could be re-planned against.
        assert!(cat.table_schema("t").is_none());
        assert_eq!(cat.table_names(), vec!["u"]);
        assert!(!cat.guarantees_partner("t", "id", "u", "id"));
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let mut cat = SessionCatalog::new();
        let v0 = cat.version();
        cat.register_table("t", schema(), vec![]).unwrap();
        let v1 = cat.version();
        assert!(v1 > v0);
        cat.insert_rows("t", vec![Row::new(vec![Value::Int64(1), Value::Null])])
            .unwrap();
        let v2 = cat.version();
        assert!(v2 > v1);
        cat.register_foreign_key("t", "id", "t", "id").unwrap();
        let v3 = cat.version();
        assert!(v3 > v2);
        assert!(cat.drop_table("t"));
        assert!(cat.version() > v3);
        // A failed mutation leaves the version untouched.
        let v = cat.version();
        assert!(cat.insert_rows("t", vec![]).is_err());
        assert!(!cat.drop_table("t"));
        assert_eq!(cat.version(), v);
    }

    #[test]
    fn insert_rows_appends_and_validates() {
        let mut cat = SessionCatalog::new();
        cat.register_table(
            "t",
            schema(),
            vec![Row::new(vec![Value::Int64(1), Value::Float64(1.0)])],
        )
        .unwrap();
        let count = cat
            .insert_rows("T", vec![Row::new(vec![Value::Int64(2), Value::Null])])
            .unwrap();
        assert_eq!(count, 2);
        assert_eq!(cat.table_row_count("t"), Some(2));
        let err = cat
            .insert_rows("t", vec![Row::new(vec![Value::Int64(3)])])
            .unwrap_err();
        assert!(err.to_string().contains("has 1 values"), "{err}");
        // Snapshot isolation: a reader holding the pre-insert Arc keeps
        // its rows while the catalog grows a fresh copy.
        let before = in_memory(&cat, "t").unwrap();
        cat.insert_rows("t", vec![Row::new(vec![Value::Int64(4), Value::Null])])
            .unwrap();
        assert_eq!(before.len(), 2);
        assert_eq!(cat.table_row_count("t"), Some(3));
    }

    fn numbered(range: std::ops::Range<usize>) -> Vec<Row> {
        range
            .map(|k| {
                let price = if k % 7 == 0 {
                    Value::Null
                } else {
                    Value::Float64(k as f64 / 2.0)
                };
                Row::new(vec![Value::Int64(k as i64), price])
            })
            .collect()
    }

    #[test]
    fn a_delete_shares_every_chunk_it_does_not_touch() {
        let mut cat = SessionCatalog::new();
        cat.register_table("t", schema(), numbered(0..3 * CHUNK_ROWS + 7))
            .unwrap();
        let before = in_memory(&cat, "t").unwrap();
        assert_eq!(cat.delete_rows("t", &[CHUNK_ROWS + 5]).unwrap(), 1);
        let after = in_memory(&cat, "t").unwrap();
        assert_eq!(after.chunks().len(), before.chunks().len());
        for (k, (a, b)) in after.chunks().iter().zip(before.chunks()).enumerate() {
            assert_eq!(Arc::ptr_eq(a, b), k != 1, "chunk {k}");
        }
        assert_eq!(
            before.len(),
            3 * CHUNK_ROWS + 7,
            "the snapshot keeps its rows"
        );
        assert_eq!(after.len(), 3 * CHUNK_ROWS + 6);
    }

    #[test]
    fn random_inserts_and_deletes_match_a_row_model() {
        // A deterministic xorshift stream.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut cat = SessionCatalog::new();
        let mut model = numbered(0..CHUNK_ROWS / 2);
        cat.register_table("t", schema(), model.clone()).unwrap();
        let mut fresh = CHUNK_ROWS / 2;
        for step in 0..40 {
            if model.is_empty() || next(3) != 0 {
                let n = 1 + next(CHUNK_ROWS + CHUNK_ROWS / 2);
                let rows = numbered(fresh..fresh + n);
                fresh += n;
                model.extend(rows.iter().cloned());
                assert_eq!(cat.insert_rows("t", rows).unwrap(), model.len());
            } else {
                // A run across a chunk boundary, or scattered rows.
                let positions: Vec<usize> = if next(2) == 0 {
                    let start = next(model.len());
                    (start..model.len().min(start + 1 + next(CHUNK_ROWS))).collect()
                } else {
                    (0..model.len()).filter(|_| next(5) == 0).collect()
                };
                assert_eq!(cat.delete_rows("t", &positions).unwrap(), positions.len());
                for &p in positions.iter().rev() {
                    model.remove(p);
                }
            }
            let table = in_memory(&cat, "t").unwrap();
            assert_eq!(table.len(), model.len(), "step {step}");
            assert!(table.rows().eq(model.iter().cloned()), "step {step}");
        }
        let table = in_memory(&cat, "t").unwrap();
        let short = (table.chunks().iter())
            .filter(|c| c.len() < CHUNK_ROWS)
            .count();
        assert!(short > 1, "the program leaves uneven chunks");
    }

    #[test]
    fn registration_displaces_the_other_representation() {
        use sparkline_storage::WriterOptions;
        let dir = std::env::temp_dir().join(format!(
            "sparkline-catalog-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.spkb");
        let disk_rows = vec![
            Row::new(vec![Value::Int64(1), Value::Float64(1.0)]),
            Row::new(vec![Value::Int64(2), Value::Float64(2.0)]),
            Row::new(vec![Value::Int64(3), Value::Float64(3.0)]),
        ];
        sparkline_storage::write_table(
            &path,
            schema().into_ref(),
            &disk_rows,
            WriterOptions::default(),
        )
        .unwrap();
        let disk = Arc::new(DiskTable::open(&path).unwrap());

        // Memory then disk: the disk registration displaces the rows.
        let mut cat = SessionCatalog::new();
        cat.register_table(
            "t",
            schema(),
            vec![Row::new(vec![Value::Int64(9), Value::Null])],
        )
        .unwrap();
        cat.register_disk_table("t", Arc::clone(&disk));
        assert!(
            in_memory(&cat, "t").is_none(),
            "stale in-memory rows survive"
        );
        assert_eq!(cat.table_row_count("t"), Some(3));

        // Disk then memory: regression — the disk entry used to survive,
        // shadowing the fresh rows in table_row_count and scans.
        let mut cat = SessionCatalog::new();
        cat.register_disk_table("t", disk);
        cat.register_table(
            "t",
            schema(),
            vec![Row::new(vec![Value::Int64(9), Value::Null])],
        )
        .unwrap();
        assert!(on_disk(&cat, "t").is_none(), "stale disk entry survives");
        assert_eq!(cat.table_row_count("t"), Some(1));

        // Mixed drop: one drop removes the single representation fully.
        assert!(cat.drop_table("t"));
        assert!(in_memory(&cat, "t").is_none());
        assert!(on_disk(&cat, "t").is_none());
        assert!(cat.table_schema("t").is_none());
        assert!(!cat.drop_table("t"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
