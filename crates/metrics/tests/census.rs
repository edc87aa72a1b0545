//! The code `census!` derives, checked on every census the workspace
//! declares: `NAMES` lists the fields in declaration order, `get` reads
//! the field its name names, `delta_since` undoes `absorb`, and
//! `write_json` round-trips through `json::parse`.

use ftnoc_fault::FaultCounts;
use ftnoc_metrics::{json, RouterTelemetry};
use ftnoc_sim::stats::{ErrorStats, EventCounts};

/// Fills `$census` with field `i` (in the order listed, which must be
/// declaration order) set to `1001 + i`, then checks the derived items.
macro_rules! check {
    ($census:ident: $($field:ident),* $(,)?) => {{
        let mut i = 1000;
        let filled = $census { $($field: { i += 1; i },)* };
        assert_eq!($census::NAMES, [$(stringify!($field)),*]);
        let mut base = filled;
        base.absorb(&filled);
        let mut total = base;
        total.absorb(&filled);
        assert_eq!(total.delta_since(&base), filled);
        for (i, name) in $census::NAMES.iter().enumerate() {
            assert_eq!(filled.get(name), Some(1001 + i as u64), "{name}");
            assert_eq!(total.get(name), Some(3 * (1001 + i as u64)), "{name}");
        }
        assert_eq!(filled.get("bogus"), None);

        let mut text = String::new();
        filled.write_json(&mut text);
        let Ok(json::Value::Obj(members)) = json::parse(&text) else {
            panic!("{text} is no JSON object");
        };
        let read: Vec<_> = members.iter().map(|(k, v)| (k.as_str(), v.as_u64())).collect();
        let want: Vec<_> = $census::NAMES.iter().map(|&n| (n, filled.get(n))).collect();
        assert_eq!(read, want);
    }};
}

#[test]
fn every_census_derives_its_code_from_its_declaration() {
    check!(EventCounts: buffer_write, buffer_read, crossbar, link, route, va, sa,
        retrans_shift, retransmission, ecc_check, nack, ac_check);
    check!(ErrorStats: link_corrected_inline, link_recovered_by_replay, flits_dropped,
        rt_corrected, va_corrected, sa_corrected, crossbar_corrected, handshake_masked,
        e2e_retransmissions, misdelivered, stranded_flits, probes_sent,
        deadlocks_confirmed, probes_discarded);
    check!(FaultCounts: link, link_multi_bit, rt, va, sa, crossbar, handshake);
    check!(RouterTelemetry: flits_routed, buffer_stalls, retransmissions, nacks,
        probes_sent, deadlocks_confirmed, faults_injected, recoveries, computed_cycles);
}
