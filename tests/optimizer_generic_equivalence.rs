//! Reference-vs-integrated equivalence on the MusicBrainz complex query,
//! optimized and unoptimized (`common::collect_unoptimized`: no rule but
//! the `EXISTS` rewrite): the hand-written `NOT EXISTS` reference query
//! and the integrated `SKYLINE OF` query must agree row-for-row, and the
//! optimizer's rules must change neither side.

mod common;

use sparkline::{QueryResult, SessionContext};
use sparkline_datagen::{musicbrainz, register_musicbrainz, Variant};

fn reference_sql() -> String {
    let base = musicbrainz::base_query_complete();
    format!(
        "SELECT * FROM ( {base} ) AS o WHERE NOT EXISTS( \
           SELECT * FROM ( {base} ) AS i WHERE \
             i.rating >= o.rating AND i.rating_count >= o.rating_count AND \
             i.length <= o.length AND i.video >= o.video AND ( \
             i.rating > o.rating OR i.rating_count > o.rating_count OR \
             i.length < o.length OR i.video > o.video))"
    )
}

#[test]
fn reference_equals_integrated_with_and_without_generic_optimizations() {
    let ctx = SessionContext::new();
    register_musicbrainz(&ctx, 250, 5, Variant::Complete).unwrap();
    let integrated_sql = musicbrainz::skyline_query(Variant::Complete, 4);
    let mut baseline: Option<Vec<String>> = None;
    for optimized in [true, false] {
        let run = |sql: &str| -> QueryResult {
            if optimized {
                ctx.sql(sql).unwrap().collect().unwrap()
            } else {
                common::collect_unoptimized(&ctx, sql).unwrap()
            }
        };
        let reference = run(&reference_sql()).sorted_display();
        let integrated = run(&integrated_sql).sorted_display();
        assert!(
            !integrated.is_empty(),
            "optimized={optimized}: empty skyline"
        );
        assert_eq!(
            reference, integrated,
            "optimized={optimized}: reference and integrated skylines diverge"
        );
        // The optimizer must not change the result either.
        match &baseline {
            None => baseline = Some(integrated),
            Some(expected) => {
                assert_eq!(&integrated, expected, "the optimizer changed the skyline")
            }
        }
    }
}
