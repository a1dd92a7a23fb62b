//! The answer checker, written from the definition of the skyline and not
//! from engine code.
//!
//! Definition (paper §3). Row `a` *dominates* row `b` when, on every
//! dimension where both are non-NULL, `a` is at least as good as `b`
//! (smaller for MIN, larger for MAX) and on at least one such dimension it
//! is strictly better. The skyline of a relation is the set of its rows
//! that no row of the relation dominates. A `WHERE` clause is applied
//! first. With NULLs the relation is not transitive and can be cyclic, so
//! a dominated row still eliminates others.
//!
//! [`skyline_by_definition`] is that sentence as two nested loops; the
//! unit tests use it as the oracle. [`dominated_flags`] computes the same
//! flags in O(n·k): rows are grouped by which dimensions are NULL, and
//! within one group projected onto a fixed set of dimensions dominance *is*
//! a strict partial order, so a row is dominated by some member of the
//! group iff it is dominated by a member of the group's projected skyline.

use std::collections::{BTreeMap, HashMap};

/// Direction of one skyline dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Min,
    Max,
}

impl Dir {
    pub fn keyword(self) -> &'static str {
        match self {
            Dir::Min => "MIN",
            Dir::Max => "MAX",
        }
    }
}

/// One row as the checker sees it: a value per column, `None` for NULL.
/// Every workload's skyline ranges over all columns in order, so column
/// `d` is dimension `d`.
pub type Point = Vec<Option<f64>>;

/// The only `WHERE` shapes the workloads use: `d<col> < value`,
/// `d<col> > value`. A NULL never passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Filter {
    pub col: usize,
    pub greater: bool,
    pub value: f64,
}

impl Filter {
    pub fn passes(&self, p: &[Option<f64>]) -> bool {
        match p[self.col] {
            Some(v) if self.greater => v > self.value,
            Some(v) => v < self.value,
            None => false,
        }
    }

    pub fn sql(&self) -> String {
        let op = if self.greater { '>' } else { '<' };
        format!("d{} {op} {}", self.col, self.value)
    }
}

/// `a` dominates `b`, straight from the definition.
pub fn dominates(a: &[Option<f64>], b: &[Option<f64>], dirs: &[Dir]) -> bool {
    let mut strictly_better = false;
    for ((x, y), dir) in a.iter().zip(b).zip(dirs) {
        let (Some(x), Some(y)) = (x, y) else { continue };
        let (x, y) = match dir {
            Dir::Min => (*x, *y),
            Dir::Max => (-*x, -*y),
        };
        if x > y {
            return false;
        }
        strictly_better |= x < y;
    }
    strictly_better
}

/// Indices of the rows no row dominates: O(n²), the oracle for the tests.
pub fn skyline_by_definition(rows: &[Point], dirs: &[Dir]) -> Vec<usize> {
    (0..rows.len())
        .filter(|&i| !rows.iter().any(|q| dominates(q, &rows[i], dirs)))
        .collect()
}

fn null_mask(p: &[Option<f64>]) -> u32 {
    p.iter()
        .enumerate()
        .fold(0, |m, (d, v)| m | (u32::from(v.is_some()) << d))
}

/// The members of `class` (rows sharing one NULL pattern) not dominated
/// within the class when only the dimensions in `dims` count. Rows are
/// visited in an order that puts every dominator before what it
/// dominates — ascending sum of folded values, ties broken
/// lexicographically — so the window only grows.
fn projected_skyline(rows: &[Point], class: &[usize], dims: u32, dirs: &[Dir]) -> Vec<usize> {
    let fold = |i: usize| -> Vec<f64> {
        (0..dirs.len())
            .filter(|d| dims >> d & 1 == 1)
            .map(|d| {
                let v = rows[i][d].expect("class member is non-NULL on its own dimensions");
                match dirs[d] {
                    Dir::Min => v,
                    Dir::Max => -v,
                }
            })
            .collect()
    };
    let mut keyed: Vec<(f64, Vec<f64>, usize)> = class
        .iter()
        .map(|&i| {
            let f = fold(i);
            (f.iter().sum(), f, i)
        })
        .collect();
    keyed.sort_by(|a, b| {
        a.0.total_cmp(&b.0).then_with(|| {
            a.1.iter()
                .zip(&b.1)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    });
    let mut window: Vec<(Vec<f64>, usize)> = Vec::new();
    for (_, f, i) in keyed {
        let dominated = window.iter().any(|(w, _)| {
            w.iter().zip(&f).all(|(x, y)| x <= y) && w.iter().zip(&f).any(|(x, y)| x < y)
        });
        if !dominated {
            window.push((f, i));
        }
    }
    window.into_iter().map(|(_, i)| i).collect()
}

/// For each row, whether some row of `rows` dominates it.
pub fn dominated_flags(rows: &[Point], dirs: &[Dir]) -> Vec<bool> {
    let mut classes: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, p) in rows.iter().enumerate() {
        classes.entry(null_mask(p)).or_default().push(i);
    }
    let mut flags = vec![false; rows.len()];
    let mut projected: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
    for (&mask_a, members_a) in &classes {
        for (&mask_c, members_c) in &classes {
            let common = mask_a & mask_c;
            if common == 0 {
                continue; // no shared non-NULL dimension: incomparable
            }
            let front = projected
                .entry((mask_c, common))
                .or_insert_with(|| projected_skyline(rows, members_c, common, dirs));
            for &i in members_a {
                if !flags[i] {
                    flags[i] = front.iter().any(|&q| dominates(&rows[q], &rows[i], dirs));
                }
            }
        }
    }
    flags
}

/// Parse one rendered reply line (tab-separated, `NULL` for NULL).
pub fn parse_line(line: &str) -> Result<Point, String> {
    line.split('\t')
        .map(|cell| match cell {
            "NULL" => Ok(None),
            _ => cell
                .parse::<f64>()
                .map(Some)
                .map_err(|_| format!("unparsable cell '{cell}' in reply line '{line}'")),
        })
        .collect()
}

fn key(p: &[Option<f64>]) -> Vec<Option<u64>> {
    // +0.0 so that -0.0 and 0.0, equal as values, are one key.
    p.iter().map(|v| v.map(|x| (x + 0.0).to_bits())).collect()
}

/// Verify one reply against the definition. The three conditions:
/// every returned row is an input row passing the filter; no input row
/// dominates a returned row; every row not returned is dominated by some
/// input row. Rows are compared as a multiset, order is not checked here
/// (later replies are compared with this one byte for byte).
pub fn check_reply(
    input: &[Point],
    filter: Option<&Filter>,
    dirs: &[Dir],
    reply: &[String],
) -> Result<(), String> {
    let candidates: Vec<Point> = input
        .iter()
        .filter(|p| filter.is_none_or(|f| f.passes(p)))
        .cloned()
        .collect();
    let mut returned: HashMap<Vec<Option<u64>>, usize> = HashMap::new();
    for line in reply {
        let p = parse_line(line)?;
        if p.len() != dirs.len() {
            return Err(format!(
                "reply line '{line}' has {} columns, expected {}",
                p.len(),
                dirs.len()
            ));
        }
        *returned.entry(key(&p)).or_default() += 1;
    }
    let flags = dominated_flags(&candidates, dirs);
    for (p, _) in candidates.iter().zip(&flags).filter(|(_, &d)| !d) {
        match returned.get_mut(&key(p)) {
            Some(n) if *n > 0 => *n -= 1,
            _ => {
                return Err(format!(
                    "row {p:?} is dominated by no input row but was not returned"
                ))
            }
        }
    }
    let dominated_keys: std::collections::HashSet<_> = candidates
        .iter()
        .zip(&flags)
        .filter(|(_, &d)| d)
        .map(|(p, _)| key(p))
        .collect();
    for (k, n) in returned {
        if n > 0 {
            let row: Vec<Option<f64>> = k.iter().map(|v| v.map(f64::from_bits)).collect();
            return Err(if dominated_keys.contains(&k) {
                format!("returned row {row:?} is dominated by an input row")
            } else {
                format!("returned row {row:?} is not an input row passing the filter (or is returned too often)")
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pt(vals: &[Option<f64>]) -> Point {
        vals.to_vec()
    }

    fn render(rows: &[Point], idx: &[usize]) -> Vec<String> {
        idx.iter()
            .map(|&i| {
                rows[i]
                    .iter()
                    .map(|v| v.map_or("NULL".to_string(), |x| format!("{x:?}")))
                    .collect::<Vec<_>>()
                    .join("\t")
            })
            .collect()
    }

    /// The hotel relation of the repository's quickstart (the paper's
    /// Listing 2: `SKYLINE OF price MIN, user_rating MAX`).
    #[test]
    fn hotel_example() {
        let hotels = vec![
            pt(&[Some(50.0), Some(7.0)]),
            pt(&[Some(80.0), Some(9.0)]),
            pt(&[Some(90.0), Some(6.0)]), // dominated by both above
            pt(&[Some(50.0), Some(7.0)]), // ties with the first: both stay
            pt(&[Some(40.0), Some(3.0)]),
        ];
        let dirs = [Dir::Min, Dir::Max];
        assert_eq!(skyline_by_definition(&hotels, &dirs), vec![0, 1, 3, 4]);
        assert_eq!(
            dominated_flags(&hotels, &dirs),
            vec![false, false, true, false, false]
        );
        let good = render(&hotels, &[0, 1, 3, 4]);
        check_reply(&hotels, None, &dirs, &good).unwrap();

        // Each of the three conditions, violated in turn.
        let mut foreign = good.clone();
        foreign[0] = "51.0\t7.0".into();
        assert!(check_reply(&hotels, None, &dirs, &foreign)
            .unwrap_err()
            .contains("not returned"));
        let extra = render(&hotels, &[0, 1, 2, 3, 4]);
        assert!(check_reply(&hotels, None, &dirs, &extra)
            .unwrap_err()
            .contains("is dominated by an input row"));
        let missing = render(&hotels, &[0, 1, 4]);
        assert!(check_reply(&hotels, None, &dirs, &missing)
            .unwrap_err()
            .contains("was not returned"));
        let twice = render(&hotels, &[0, 1, 3, 4, 4]);
        assert!(check_reply(&hotels, None, &dirs, &twice)
            .unwrap_err()
            .contains("not an input row"));

        // WHERE price > 45 removes the 40/3 hotel before the skyline.
        let filter = Filter {
            col: 0,
            greater: true,
            value: 45.0,
        };
        check_reply(&hotels, Some(&filter), &dirs, &render(&hotels, &[0, 1, 3])).unwrap();
        assert!(check_reply(&hotels, Some(&filter), &dirs, &good).is_err());
    }

    /// With NULLs dominance is cyclic: a ≻ c ≻ b ≻ a. All three are out,
    /// and `e`, which dominates a and c but shares no dimension with b,
    /// does not need to dominate b for b to be out.
    #[test]
    fn null_dominance_is_not_transitive() {
        let rows = vec![
            pt(&[Some(1.0), Some(2.0), None]), // a
            pt(&[None, Some(1.0), Some(2.0)]), // b
            pt(&[Some(2.0), None, Some(1.0)]), // c
            pt(&[Some(0.0), None, None]),      // e
            pt(&[None, None, None]),           // comparable with nothing
        ];
        let dirs = [Dir::Min; 3];
        assert!(dominates(&rows[1], &rows[0], &dirs)); // b ≻ a
        assert!(dominates(&rows[2], &rows[1], &dirs)); // c ≻ b
        assert!(dominates(&rows[0], &rows[2], &dirs)); // a ≻ c
        assert!(dominates(&rows[3], &rows[2], &dirs)); // e ≻ c
        assert!(!dominates(&rows[3], &rows[1], &dirs)); // e, b incomparable
        assert_eq!(skyline_by_definition(&rows, &dirs), vec![3, 4]);
        assert_eq!(
            dominated_flags(&rows, &dirs),
            vec![true, true, true, false, false]
        );
        check_reply(&rows, None, &dirs, &render(&rows, &[3, 4])).unwrap();
        // A checker that deleted c as soon as e dominated it would keep b.
        assert!(check_reply(&rows, None, &dirs, &render(&rows, &[1, 3, 4])).is_err());
    }

    /// The O(n·k) flags equal the literal definition on random relations
    /// drawn from a small grid, so ties, duplicates and every NULL pattern
    /// occur.
    #[test]
    fn fast_flags_equal_the_definition() {
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..60 {
            let dims = 2 + round % 3;
            let null_share = if round % 2 == 0 { 0.0 } else { 0.3 };
            let rows: Vec<Point> = (0..120)
                .map(|_| {
                    (0..dims)
                        .map(|_| {
                            (rng.gen_range(0.0..1.0) >= null_share)
                                .then(|| f64::from(rng.gen_range(0..6)))
                        })
                        .collect()
                })
                .collect();
            let dirs: Vec<Dir> = (0..dims)
                .map(|d| {
                    if (round + d) % 2 == 0 {
                        Dir::Min
                    } else {
                        Dir::Max
                    }
                })
                .collect();
            let expected = skyline_by_definition(&rows, &dirs);
            let fast: Vec<usize> = dominated_flags(&rows, &dirs)
                .iter()
                .enumerate()
                .filter(|(_, &d)| !d)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(fast, expected, "round {round}");
        }
    }
}
