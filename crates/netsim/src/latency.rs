//! Latency modeling.
//!
//! Request latency = DNS (cached after first lookup) + TCP handshake
//! (1 RTT) + HTTP request/response (1 RTT + server time), with
//! deterministic per-sample jitter derived from a hash of the inputs so
//! the same (client, host, time) always sees the same latency. Zhu et
//! al.'s 2016 measurement (cited in §3) found a 20 ms median OCSP lookup
//! because 94 % of requests hit CDN edges; our CDN front reproduces that
//! by serving from the client's own region.

use crate::region::Region;
use asn1::Time;
use simcrypto::hmac::hmac_sha256_parts;

/// Deterministic jitter in `[0, spread_ms)` for a `(host, region, time)`
/// triple.
fn jitter_ms(seed: u64, host: &str, region: Region, time: Time, spread_ms: f64) -> f64 {
    let mac = hmac_sha256_parts(
        &seed.to_be_bytes(),
        &[host.as_bytes(), &[region as u8], &time.unix().to_be_bytes()],
    );
    let x = u64::from_be_bytes(mac[..8].try_into().unwrap());
    (x as f64 / u64::MAX as f64) * spread_ms
}

/// Latency of one HTTP exchange, with and without a DNS lookup. Both
/// share one jitter draw: only the DNS term differs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HttpLatency {
    /// Cold DNS: resolver lookup, TCP handshake, request/response.
    pub cold_ms: f64,
    /// Warm DNS: TCP handshake and request/response only.
    pub warm_ms: f64,
}

impl HttpLatency {
    /// The latency for a lookup that is `cold_dns` or not.
    pub fn ms(self, cold_dns: bool) -> f64 {
        if cold_dns {
            self.cold_ms
        } else {
            self.warm_ms
        }
    }
}

/// Latency of one HTTP exchange from `client` to a server in
/// `server_region`, with and without DNS.
pub fn http_latency_ms(
    seed: u64,
    host: &str,
    client: Region,
    server_region: Region,
    time: Time,
    server_time_ms: f64,
) -> HttpLatency {
    let rtt = client.rtt_ms(server_region);
    let jitter = jitter_ms(seed, host, client, time, rtt * 0.25);
    // Both sums keep the steps of `dns + rtt + rtt + server_time_ms`
    // (dns = 0.0 when warm), so each is bit-identical to that formula.
    let cold_base = rtt * 0.5 + rtt /* TCP */ + rtt /* HTTP */ + server_time_ms;
    let warm_base = 0.0 + rtt /* TCP */ + rtt /* HTTP */ + server_time_ms;
    HttpLatency {
        cold_ms: cold_base + jitter,
        warm_ms: warm_base + jitter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcrypto::hmac_sha256;

    fn t() -> Time {
        Time::from_civil(2018, 5, 1, 0, 0, 0)
    }

    fn latency(host: &str, client: Region, server: Region, time: Time) -> HttpLatency {
        http_latency_ms(1, host, client, server, time, 5.0)
    }

    /// The one-latency-per-call formula this module used before the
    /// cold and warm latencies shared a jitter draw, kept verbatim.
    fn one_call_latency_ms(
        seed: u64,
        host: &str,
        client: Region,
        server_region: Region,
        time: Time,
        cold_dns: bool,
        server_time_ms: f64,
    ) -> f64 {
        let mut msg = Vec::with_capacity(host.len() + 24);
        msg.extend_from_slice(host.as_bytes());
        msg.push(client as u8);
        msg.extend_from_slice(&time.unix().to_be_bytes());
        let rtt = client.rtt_ms(server_region);
        let mac = hmac_sha256(&seed.to_be_bytes(), &msg);
        let x = u64::from_be_bytes(mac[..8].try_into().unwrap());
        let jitter = (x as f64 / u64::MAX as f64) * (rtt * 0.25);
        let dns = if cold_dns { rtt * 0.5 } else { 0.0 };
        let base = dns + rtt + rtt + server_time_ms;
        base + jitter
    }

    #[test]
    fn shared_jitter_pair_is_bit_identical_to_two_calls() {
        let hosts = [
            "ocsp.ca.test",
            "",
            "x",
            "ocsp.a-much-longer-responder-name.example.org",
        ];
        for client in Region::VANTAGE_POINTS {
            for server in Region::VANTAGE_POINTS {
                for host in hosts {
                    for step in -3..40i64 {
                        let time = t() + step * 3_599 + step * step;
                        for server_time_ms in [0.0, 1.0, 5.0, 17.25] {
                            let pair =
                                http_latency_ms(9, host, client, server, time, server_time_ms);
                            for cold_dns in [true, false] {
                                let old = one_call_latency_ms(
                                    9,
                                    host,
                                    client,
                                    server,
                                    time,
                                    cold_dns,
                                    server_time_ms,
                                );
                                assert_eq!(
                                    pair.ms(cold_dns).to_bits(),
                                    old.to_bits(),
                                    "{client:?}->{server:?} {host} {time:?} cold={cold_dns}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = latency("ocsp.ca.test", Region::Paris, Region::Virginia, t());
        let b = latency("ocsp.ca.test", Region::Paris, Region::Virginia, t());
        assert_eq!(a, b);
    }

    #[test]
    fn varies_with_inputs() {
        let a = latency("a.test", Region::Paris, Region::Virginia, t());
        let b = latency("b.test", Region::Paris, Region::Virginia, t());
        let c = latency("a.test", Region::Paris, Region::Virginia, t() + 3600);
        assert_ne!(a.cold_ms, b.cold_ms);
        assert_ne!(a.cold_ms, c.cold_ms);
    }

    #[test]
    fn warm_dns_is_faster() {
        let l = latency("x.test", Region::Seoul, Region::Paris, t());
        assert!(l.warm_ms < l.cold_ms);
        assert_eq!(l.ms(true), l.cold_ms);
        assert_eq!(l.ms(false), l.warm_ms);
    }

    #[test]
    fn nearby_beats_faraway() {
        // Same-region (CDN-edge-like) exchange ~ a few ms; antipodal ~ 600+.
        let near = http_latency_ms(1, "x.test", Region::Sydney, Region::Sydney, t(), 1.0).warm_ms;
        let far = http_latency_ms(1, "x.test", Region::Sydney, Region::SaoPaulo, t(), 1.0).warm_ms;
        assert!(near < 10.0, "near = {near}");
        assert!(far > 500.0, "far = {far}");
    }
}
