//! Closed-loop traffic generator and post oracle.
//!
//! Everything here derives from `--seed`: think times, post bodies, churn,
//! and the victim/disruptor choice of a blame episode.  The program under
//! test only ever sees the generated [`ClientAction`]s.
//!
//! The same object is the output oracle for posts: every body handed to a
//! client is remembered until a round reveals it, and a reveal must be
//! byte-identical, in the owner's slot, in order, exactly once and within
//! the deadline — anything else is recorded as a failure.

use std::collections::VecDeque;
use std::time::Instant;

use dissent_core::ClientAction;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// How clients decide when to post.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Post, wait for the reveal, think 1–3 rounds, post again.
    Chat,
    /// Post every round; the slot is held open by the standing backlog.
    Bulk,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Normal,
    /// Posts every round so its slot is open when the jam starts.
    Victim,
    /// The disruptor-to-be, letting its in-flight posts drain.
    Draining,
    Jamming,
    Expelled,
}

struct Post {
    body: Vec<u8>,
    handed_at: Instant,
    handed_round: u64,
}

struct Client {
    role: Role,
    think: u32,
    fifo: VecDeque<Post>,
    seq: u64,
}

/// What the oracle has counted since the last [`Traffic::reset_window`].
#[derive(Default)]
pub struct Tally {
    pub handed: u64,
    pub revealed: u64,
    pub latency_ms: Vec<f64>,
    /// Oracle violations; never reset.
    pub failures: Vec<String>,
}

pub struct Traffic {
    mode: Mode,
    post_len: usize,
    churn: f64,
    deadline_rounds: u64,
    rng: StdRng,
    clients: Vec<Client>,
    slot_of_client: Vec<usize>,
    client_of_slot: Vec<usize>,
    pub tally: Tally,
}

impl Traffic {
    /// `churn` is the per-round probability that a *thinking* client is
    /// offline; a client with a post in flight stays online, so every post
    /// is revealed within the deadline and no operation fails by design.
    pub fn new(
        mode: Mode,
        post_len: usize,
        churn: f64,
        seed: u64,
        slot_of_client: Vec<usize>,
    ) -> Traffic {
        let mut seed_bytes = [0u8; 32];
        seed_bytes[..8].copy_from_slice(&seed.to_le_bytes());
        seed_bytes[8..16].copy_from_slice(b"traffic\0");
        let mut rng = StdRng::from_seed(seed_bytes);
        let n = slot_of_client.len();
        let mut client_of_slot = vec![0; n];
        for (client, &slot) in slot_of_client.iter().enumerate() {
            client_of_slot[slot] = client;
        }
        let clients = (0..n)
            .map(|_| Client {
                role: Role::Normal,
                think: rng.gen_range(0..=3u32),
                fifo: VecDeque::new(),
                seq: 0,
            })
            .collect();
        Traffic {
            mode,
            post_len,
            churn,
            // Chat posts surface one round after the request bit; bulk posts
            // ride a two-batch backlog (request, grow, then send).
            deadline_rounds: match mode {
                Mode::Chat => 8,
                Mode::Bulk => 12,
            },
            rng,
            clients,
            slot_of_client,
            client_of_slot,
            tally: Tally::default(),
        }
    }

    /// Forget the window's counts and latencies (failures are kept).
    pub fn reset_window(&mut self) {
        self.tally.handed = 0;
        self.tally.revealed = 0;
        self.tally.latency_ms.clear();
    }

    /// Stop starting new posts (drain phase at the end of a run).
    pub fn quiesce(&mut self) {
        for c in &mut self.clients {
            if c.role == Role::Normal || c.role == Role::Victim {
                c.role = Role::Draining;
            }
        }
    }

    /// Posts handed out and not yet revealed.
    pub fn in_flight(&self) -> usize {
        self.clients.iter().map(|c| c.fifo.len()).sum()
    }

    fn new_post(&mut self, client: usize, round: u64, now: Instant) -> Vec<u8> {
        let mut body = vec![0u8; self.post_len];
        self.rng.fill_bytes(&mut body);
        // A unique header so two posts can never be byte-identical.
        let c = &mut self.clients[client];
        let id = ((client as u64) << 40) | c.seq;
        c.seq += 1;
        let head = self.post_len.min(8);
        body[..head].copy_from_slice(&id.to_be_bytes()[8 - head..]);
        c.fifo.push_back(Post {
            body: body.clone(),
            handed_at: now,
            handed_round: round,
        });
        self.tally.handed += 1;
        body
    }

    /// One action per roster client for `round`.
    pub fn actions(&mut self, round: u64, now: Instant) -> Vec<ClientAction> {
        let victim_slot = self
            .clients
            .iter()
            .position(|c| c.role == Role::Victim)
            .map(|v| self.slot_of_client[v]);
        (0..self.clients.len())
            .map(|i| match self.clients[i].role {
                Role::Expelled => ClientAction::Offline,
                Role::Draining => ClientAction::Idle,
                Role::Jamming => ClientAction::Disrupt {
                    victim_slot: victim_slot.unwrap_or(0),
                },
                Role::Victim => ClientAction::Send(self.new_post(i, round, now)),
                Role::Normal if self.mode == Mode::Bulk => {
                    ClientAction::Send(self.new_post(i, round, now))
                }
                Role::Normal => {
                    if !self.clients[i].fifo.is_empty() {
                        ClientAction::Idle
                    } else if self.clients[i].think > 0 {
                        self.clients[i].think -= 1;
                        if self.churn > 0.0 && self.rng.gen_bool(self.churn) {
                            ClientAction::Offline
                        } else {
                            ClientAction::Idle
                        }
                    } else {
                        ClientAction::Send(self.new_post(i, round, now))
                    }
                }
            })
            .collect()
    }

    /// Check what `round` revealed against what was handed out; returns the
    /// verified post-body bytes delivered by this round.
    pub fn observe(&mut self, round: u64, messages: &[(usize, Vec<u8>)], now: Instant) -> u64 {
        let mut bytes = 0u64;
        for (slot, body) in messages {
            let Some(&client) = self.client_of_slot.get(*slot) else {
                self.tally
                    .failures
                    .push(format!("round {round}: message in unknown slot {slot}"));
                continue;
            };
            match self.clients[client].fifo.pop_front() {
                Some(post) if post.body == *body => {
                    self.tally.revealed += 1;
                    bytes += body.len() as u64;
                    self.tally
                        .latency_ms
                        .push(now.duration_since(post.handed_at).as_secs_f64() * 1e3);
                    self.clients[client].think = self.rng.gen_range(1..=3u32);
                }
                Some(_) => self.tally.failures.push(format!(
                    "round {round}: slot {slot} revealed bytes that differ from client {client}'s oldest post"
                )),
                None => self.tally.failures.push(format!(
                    "round {round}: slot {slot} revealed a post client {client} never had in flight"
                )),
            }
        }
        // The post a victim put in its slot this round was jammed: it is
        // expected lost, not late.
        if self.clients.iter().any(|c| c.role == Role::Jamming) {
            if let Some(v) = self.clients.iter_mut().find(|c| c.role == Role::Victim) {
                v.fifo.pop_front();
            }
        }
        for (i, c) in self.clients.iter_mut().enumerate() {
            if c.role == Role::Expelled {
                continue;
            }
            while c
                .fifo
                .front()
                .is_some_and(|p| p.handed_round + self.deadline_rounds < round)
            {
                c.fifo.pop_front();
                self.tally.failures.push(format!(
                    "round {round}: a post of client {i} was not revealed within {} rounds",
                    self.deadline_rounds
                ));
            }
        }
        bytes
    }

    /// Choose a victim and a disruptor among the clients still in the
    /// group; the victim starts posting every round, the disruptor stops
    /// posting so nothing of its own is in flight when it starts to jam.
    pub fn pick_pair(&mut self) -> Option<(usize, usize)> {
        let normal: Vec<usize> = (0..self.clients.len())
            .filter(|&i| self.clients[i].role == Role::Normal)
            .collect();
        if normal.len() < 2 {
            return None;
        }
        let v = self.rng.gen_range(0..normal.len());
        let mut d = self.rng.gen_range(0..normal.len() - 1);
        if d >= v {
            d += 1;
        }
        self.clients[normal[v]].role = Role::Victim;
        self.clients[normal[d]].role = Role::Draining;
        Some((normal[v], normal[d]))
    }

    /// The disruptor starts XORing noise over the victim's slot.
    pub fn start_jam(&mut self, disruptor: usize) {
        if !self.clients[disruptor].fifo.is_empty() {
            self.tally.failures.push(format!(
                "disruptor {disruptor} still had a post in flight at jam start"
            ));
        }
        self.clients[disruptor].role = Role::Jamming;
    }

    /// The disruptor was expelled; the victim goes back to normal traffic.
    pub fn end_jam(&mut self, victim: usize, disruptor: usize) {
        self.clients[disruptor].role = Role::Expelled;
        self.clients[disruptor].fifo.clear();
        self.clients[victim].role = Role::Normal;
        self.clients[victim].think = self.rng.gen_range(1..=3u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sends(actions: &[ClientAction]) -> Vec<(usize, Vec<u8>)> {
        actions
            .iter()
            .enumerate()
            .filter_map(|(i, a)| match a {
                ClientAction::Send(b) => Some((i, b.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_inputs() {
        let now = Instant::now();
        let mut a = Traffic::new(Mode::Chat, 100, 0.125, 9, vec![2, 0, 1]);
        let mut b = Traffic::new(Mode::Chat, 100, 0.125, 9, vec![2, 0, 1]);
        for round in 0..20 {
            assert_eq!(a.actions(round, now), b.actions(round, now));
        }
        let mut c = Traffic::new(Mode::Chat, 100, 0.125, 10, vec![2, 0, 1]);
        let differs = (0..20).any(|r| a.actions(20 + r, now) != c.actions(r, now));
        assert!(differs);
    }

    #[test]
    fn closed_loop_posts_again_only_after_the_reveal() {
        let now = Instant::now();
        let mut t = Traffic::new(Mode::Chat, 32, 0.0, 1, vec![0]);
        let mut round = 0;
        let post = loop {
            if let Some((_, body)) = sends(&t.actions(round, now)).pop() {
                break body;
            }
            round += 1;
        };
        // Not revealed yet: the client waits.
        assert!(sends(&t.actions(round + 1, now)).is_empty());
        assert_eq!(t.in_flight(), 1);
        assert_eq!(t.observe(round + 1, &[(0, post)], now), 32);
        assert_eq!((t.tally.revealed, t.in_flight()), (1, 0));
        assert!(t.tally.failures.is_empty());
    }

    #[test]
    fn wrong_duplicate_and_late_reveals_are_failures() {
        let now = Instant::now();
        let mut t = Traffic::new(Mode::Bulk, 16, 0.0, 1, vec![1, 0]);
        let handed = sends(&t.actions(0, now));
        assert_eq!(handed.len(), 2);
        // Client 0 owns slot 1.  Reveal its post in the wrong slot.
        t.observe(0, &[(0, handed[0].1.clone())], now);
        assert_eq!(t.tally.failures.len(), 1);
        // A reveal with nothing in flight (duplicate) fails too.
        t.observe(1, &[(0, handed[1].1.clone())], now);
        assert_eq!(t.tally.failures.len(), 2);
        // Client 0's post is still in flight; past the deadline it is late.
        t.observe(13, &[], now);
        assert_eq!(t.tally.failures.len(), 3);
    }
}
