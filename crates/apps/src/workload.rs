//! The WebBench-style workload generator and performance model.
//!
//! The paper measures throughput (KB/s) and latency (ms) for the four
//! configurations of Table 3 under an *unsaturated* load (one WebBench
//! client) and a *saturated* load (15 client engines). Here:
//!
//! * the **workload** is the same kind of static-page mix, generated
//!   deterministically from the standard world's document root;
//! * the **per-request cost** of each configuration is *measured* by running
//!   the requests through the deployed system and reading the execution
//!   counters (instructions per variant, monitor checks, kernel I/O bytes);
//! * a **closed-loop discrete-event model** converts those costs into
//!   throughput and latency for a given number of clients, charging CPU work
//!   per variant but I/O only once — which is exactly the asymmetry that
//!   produces the paper's unsaturated-vs-saturated shape.

use crate::campaigns::httpd_campaign;
use crate::scenarios::{run_requests, ScenarioOutcome};
use nvariant::DeploymentConfig;
use nvariant_campaign::Scenario;
use nvariant_simos::{CostModel, SimDuration, SimInstant, Sysno};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a benign HTTP request for `path`, with the modest User-Agent the
/// WebBench tool would send.
#[must_use]
pub fn benign_request(path: &str) -> Vec<u8> {
    format!(
        "GET {path} HTTP/1.0\r\nHost: www.example.test\r\nUser-Agent: WebBench 5.0\r\nAccept: */*\r\n\r\n"
    )
    .into_bytes()
}

/// A weighted static-page mix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadMix {
    entries: Vec<(String, u32)>,
}

impl Default for WorkloadMix {
    fn default() -> Self {
        WorkloadMix::standard()
    }
}

impl WorkloadMix {
    /// The standard static mix over the pages of the standard world.
    #[must_use]
    pub fn standard() -> Self {
        WorkloadMix {
            entries: vec![
                ("/index.html".to_string(), 4),
                ("/about.html".to_string(), 2),
                ("/products.html".to_string(), 2),
                ("/contact.html".to_string(), 1),
                ("/news.html".to_string(), 1),
                ("/logo.png".to_string(), 2),
            ],
        }
    }

    /// A custom mix from `(path, weight)` pairs.
    #[must_use]
    pub fn new(entries: Vec<(String, u32)>) -> Self {
        WorkloadMix { entries }
    }

    /// The distinct paths in the mix.
    #[must_use]
    pub fn paths(&self) -> Vec<&str> {
        self.entries.iter().map(|(p, _)| p.as_str()).collect()
    }

    /// Generates a deterministic sequence of `count` requests drawn from the
    /// weighted mix.
    #[must_use]
    pub fn request_sequence(&self, count: usize, seed: u64) -> Vec<Vec<u8>> {
        let total_weight: u32 = self.entries.iter().map(|(_, w)| *w).sum::<u32>().max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let mut pick = rng.gen_range(0..total_weight);
                for (path, weight) in &self.entries {
                    if pick < *weight {
                        return benign_request(path);
                    }
                    pick -= weight;
                }
                benign_request("/index.html")
            })
            .collect()
    }
}

/// A load level: how many closed-loop clients issue how many requests each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadLevel {
    /// Number of concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
}

impl LoadLevel {
    /// The paper's unsaturated load: a single WebBench client engine.
    #[must_use]
    pub fn unsaturated() -> Self {
        LoadLevel {
            clients: 1,
            requests_per_client: 36,
        }
    }

    /// The paper's saturated load: three client machines running five
    /// engines each.
    #[must_use]
    pub fn saturated() -> Self {
        LoadLevel {
            clients: 15,
            requests_per_client: 6,
        }
    }

    /// Total requests issued at this load level.
    #[must_use]
    pub fn total_requests(&self) -> usize {
        self.clients * self.requests_per_client
    }

    /// A doubling client-count ladder (1, 2, 4, ... up to `max_clients`),
    /// for tracing how throughput and latency trend *between* the paper's
    /// two published load points instead of just at them.
    #[must_use]
    pub fn ladder(max_clients: usize) -> Vec<LoadLevel> {
        let mut levels = Vec::new();
        let mut clients = 1;
        while clients <= max_clients {
            levels.push(LoadLevel {
                clients,
                requests_per_client: 4,
            });
            clients *= 2;
        }
        levels
    }
}

/// One measured cell of the Table 3 reproduction.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchmarkResult {
    /// Configuration label.
    pub config_label: String,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Requests served.
    pub requests: usize,
    /// Throughput in KB/s of response payload.
    pub throughput_kb_s: f64,
    /// Mean request latency in milliseconds.
    pub latency_ms: f64,
    /// Average CPU service time per request (all variants plus monitor
    /// checks), in milliseconds.
    pub cpu_service_ms: f64,
    /// Total instructions executed across all variants.
    pub total_instructions: u64,
    /// Monitor equivalence checks performed.
    pub monitor_checks: u64,
    /// Whether every request was answered successfully.
    pub all_requests_succeeded: bool,
}

/// The WebBench-style benchmark driver.
#[derive(Clone, Debug)]
pub struct WebBench {
    /// The page mix.
    pub mix: WorkloadMix,
    /// The simulated-time cost model.
    pub costs: CostModel,
    /// Seed for the deterministic request sequence.
    pub seed: u64,
}

impl Default for WebBench {
    fn default() -> Self {
        WebBench {
            mix: WorkloadMix::standard(),
            costs: CostModel::default(),
            seed: 0x5EED,
        }
    }
}

impl WebBench {
    /// Measures one configuration under one load level.
    #[must_use]
    pub fn measure(&self, config: &DeploymentConfig, load: &LoadLevel) -> BenchmarkResult {
        let requests = self.mix.request_sequence(load.total_requests(), self.seed);
        let scenario = run_requests(config, &requests);
        self.result_from_scenario(config, load, &scenario)
    }

    /// Measures every configuration × load-level cell as one campaign over
    /// the cached compiled artifacts, fanning the cells out across
    /// `workers` threads. Results come back config-major (`configs[0]`
    /// under every load, then `configs[1]`, ...), and each cell equals the
    /// corresponding [`measure`](Self::measure) call at any worker count:
    /// the request sequence is fixed by the bench's own seed.
    #[must_use]
    pub fn measure_matrix(
        &self,
        configs: &[DeploymentConfig],
        loads: &[LoadLevel],
        workers: usize,
    ) -> Vec<BenchmarkResult> {
        let mut campaign = httpd_campaign("webbench", configs);
        for load in loads {
            campaign = campaign.scenario(Scenario::fixed_requests(
                format!("load-{}x{}", load.clients, load.requests_per_client),
                self.mix.request_sequence(load.total_requests(), self.seed),
            ));
        }
        let report = campaign.run(workers);
        report
            .cells
            .into_iter()
            .map(|cell| {
                let config = &configs[cell.spec.config_index];
                let load = &loads[cell.spec.scenario_index];
                let scenario = ScenarioOutcome::from_cell(cell);
                self.result_from_scenario(config, load, &scenario)
            })
            .collect()
    }

    /// Converts a served scenario into throughput/latency figures using the
    /// closed-loop model.
    #[must_use]
    pub fn result_from_scenario(
        &self,
        config: &DeploymentConfig,
        load: &LoadLevel,
        scenario: &ScenarioOutcome,
    ) -> BenchmarkResult {
        let n_requests = scenario.requests.len().max(1);
        let metrics = &scenario.system.metrics;

        // Measured CPU cost per request: all variants' instructions plus the
        // per-syscall kernel crossings and the monitor's equivalence checks.
        let cpu_total = self.costs.cpu_cost(
            metrics.total_instructions,
            metrics.syscalls * metrics.variants.max(1) as u64,
        ) + self.costs.monitor_cost(metrics.monitor_checks);
        let cpu_per_request = SimDuration::from_nanos(cpu_total.as_nanos() / n_requests as u64);

        // Kernel-side I/O per request (performed once regardless of variant
        // count): approximate the disk portion from the bytes the kernel
        // moved minus what went over the network.
        let response_bytes: u64 = scenario.total_response_bytes();
        let request_bytes: u64 = scenario
            .requests
            .iter()
            .map(|r| r.request.len() as u64)
            .sum();
        let disk_bytes = metrics
            .io_bytes
            .saturating_sub(response_bytes + request_bytes);
        let disk_per_request = self
            .costs
            .io_cost(Sysno::Read, (disk_bytes / n_requests as u64) as usize);
        let service = cpu_per_request + disk_per_request;

        let avg_request = request_bytes / n_requests as u64;
        let avg_response = response_bytes / n_requests as u64;
        let request_net = self.costs.network_transfer(avg_request as usize);
        let response_net = self.costs.network_transfer(avg_response as usize);

        let (duration, mean_latency) = simulate_closed_loop(
            load.clients.max(1),
            load.requests_per_client.max(1),
            service,
            request_net,
            response_net,
        );
        let total_bytes_kb = response_bytes as f64 / 1024.0;
        let throughput_kb_s = if duration.as_secs_f64() > 0.0 {
            total_bytes_kb / duration.as_secs_f64()
        } else {
            0.0
        };

        BenchmarkResult {
            config_label: config.label(),
            clients: load.clients,
            requests: n_requests,
            throughput_kb_s,
            latency_ms: mean_latency.as_millis_f64(),
            cpu_service_ms: cpu_per_request.as_millis_f64(),
            total_instructions: metrics.total_instructions,
            monitor_checks: metrics.monitor_checks,
            all_requests_succeeded: scenario.successful_requests() == scenario.requests.len(),
        }
    }
}

/// Simulates `clients` closed-loop clients (zero think time) against a
/// single-threaded server with deterministic `service` time per request.
/// Returns the total simulated duration and the mean request latency.
fn simulate_closed_loop(
    clients: usize,
    requests_per_client: usize,
    service: SimDuration,
    request_net: SimDuration,
    response_net: SimDuration,
) -> (SimDuration, SimDuration) {
    let mut next_send = vec![SimInstant::ZERO; clients];
    let mut remaining = vec![requests_per_client; clients];
    let mut server_free = SimInstant::ZERO;
    let mut latency_total = SimDuration::ZERO;
    let mut completed = 0u64;
    let mut last_completion = SimInstant::ZERO;

    loop {
        // Pick the client with the earliest pending send.
        let mut chosen = None;
        for (client, left) in remaining.iter().enumerate() {
            if *left == 0 {
                continue;
            }
            match chosen {
                None => chosen = Some(client),
                Some(best) if next_send[client] < next_send[best] => chosen = Some(client),
                Some(_) => {}
            }
        }
        let Some(client) = chosen else { break };

        let send = next_send[client];
        let arrival = send + request_net;
        let start = arrival.max(server_free);
        let done = start + service;
        server_free = done;
        let response_arrival = done + response_net;

        latency_total += response_arrival.duration_since(send);
        completed += 1;
        last_completion = last_completion.max(response_arrival);
        remaining[client] -= 1;
        next_send[client] = response_arrival;
    }

    let mean_latency = latency_total
        .as_nanos()
        .checked_div(completed)
        .map_or(SimDuration::ZERO, SimDuration::from_nanos);
    (
        last_completion.duration_since(SimInstant::ZERO),
        mean_latency,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_request_is_well_formed() {
        let req = benign_request("/index.html");
        let text = String::from_utf8(req).unwrap();
        assert!(text.starts_with("GET /index.html HTTP/1.0\r\n"));
        assert!(text.contains("User-Agent: WebBench 5.0"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn request_sequence_is_deterministic_and_weighted() {
        let mix = WorkloadMix::standard();
        let a = mix.request_sequence(50, 7);
        let b = mix.request_sequence(50, 7);
        assert_eq!(a, b);
        let c = mix.request_sequence(50, 8);
        assert_ne!(a, c);
        // The heaviest page appears most often.
        let count_index = a
            .iter()
            .filter(|r| r.starts_with(b"GET /index.html "))
            .count();
        let count_contact = a
            .iter()
            .filter(|r| r.starts_with(b"GET /contact.html "))
            .count();
        assert!(count_index > count_contact);
        assert_eq!(mix.paths().len(), 6);
    }

    #[test]
    fn load_levels_match_the_paper_setup() {
        assert_eq!(LoadLevel::unsaturated().clients, 1);
        assert_eq!(LoadLevel::saturated().clients, 15);
        assert!(LoadLevel::saturated().total_requests() >= 60);
    }

    #[test]
    fn ladder_doubles_client_counts() {
        let ladder = LoadLevel::ladder(64);
        assert_eq!(
            ladder.iter().map(|l| l.clients).collect::<Vec<_>>(),
            vec![1, 2, 4, 8, 16, 32, 64]
        );
        assert!(ladder.iter().all(|l| l.total_requests() > 0));
        // A cap below the next power of two stops the ladder early.
        assert_eq!(LoadLevel::ladder(10).len(), 4);
    }

    #[test]
    fn closed_loop_model_saturates_with_many_clients() {
        let service = SimDuration::from_micros(500);
        let net = SimDuration::from_micros(200);
        let (dur_1, lat_1) = simulate_closed_loop(1, 50, service, net, net);
        let (dur_15, lat_15) = simulate_closed_loop(15, 50, service, net, net);
        // One client: latency is service + 2*net, no queueing.
        assert_eq!(lat_1, service + net + net);
        // Fifteen clients: the server is the bottleneck, so latency grows
        // while total duration per request shrinks (higher throughput).
        assert!(lat_15 > lat_1.times(5));
        let rate_1 = 50.0 / dur_1.as_secs_f64();
        let rate_15 = (15.0 * 50.0) / dur_15.as_secs_f64();
        assert!(rate_15 > rate_1 * 1.5);
        // But the saturated rate is bounded by the service time.
        let service_bound = 1.0 / service.as_secs_f64();
        assert!(rate_15 <= service_bound * 1.01);
    }

    #[test]
    fn measured_throughput_drops_when_service_time_doubles() {
        // Direct sanity check of the model feeding Table 3: doubling the
        // per-request CPU cost roughly halves saturated throughput.
        let slow = simulate_closed_loop(
            15,
            20,
            SimDuration::from_micros(1000),
            SimDuration::from_micros(100),
            SimDuration::from_micros(100),
        );
        let fast = simulate_closed_loop(
            15,
            20,
            SimDuration::from_micros(500),
            SimDuration::from_micros(100),
            SimDuration::from_micros(100),
        );
        let ratio = slow.0.as_secs_f64() / fast.0.as_secs_f64();
        assert!(ratio > 1.8 && ratio < 2.2, "ratio {ratio}");
    }

    #[test]
    fn webbench_measures_a_configuration_end_to_end() {
        let bench = WebBench::default();
        let load = LoadLevel {
            clients: 2,
            requests_per_client: 3,
        };
        let result = bench.measure(&DeploymentConfig::Unmodified, &load);
        assert_eq!(result.requests, 6);
        assert!(result.all_requests_succeeded);
        assert!(result.throughput_kb_s > 0.0);
        assert!(result.latency_ms > 0.0);
        assert!(result.total_instructions > 10_000);
        assert_eq!(result.monitor_checks, 0);
    }

    #[test]
    fn measure_matrix_parallel_cells_match_serial_measurements() {
        let bench = WebBench::default();
        let configs = [
            DeploymentConfig::Unmodified,
            DeploymentConfig::TwoVariantUid,
        ];
        let loads = [
            LoadLevel {
                clients: 1,
                requests_per_client: 4,
            },
            LoadLevel {
                clients: 2,
                requests_per_client: 2,
            },
        ];
        let matrix = bench.measure_matrix(&configs, &loads, 4);
        assert_eq!(matrix.len(), 4);
        // Config-major ordering, each cell identical to the one-shot path.
        let mut index = 0;
        for config in &configs {
            for load in &loads {
                assert_eq!(matrix[index], bench.measure(config, load), "cell {index}");
                index += 1;
            }
        }
    }
}
