//! Multiaddresses: self-describing, composable network addresses.
//!
//! A multiaddress is a human-readable, hierarchically-separated sequence of
//! protocol choices, e.g. `/ip4/1.2.3.4/tcp/3333/p2p/QmZyWQ14...` (paper
//! §2.2, Figure 2). The format lets a node know *before dialing* whether it
//! shares the transport stack of a remote peer, and allows relay composition
//! via the `p2p-circuit` component.

use crate::{peer::PeerId, varint, Error, Multibase, Result};
use std::net::{Ipv4Addr, Ipv6Addr};

/// One component of a multiaddress.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// `/ip4/<addr>` — IPv4 network address.
    Ip4(Ipv4Addr),
    /// `/ip6/<addr>` — IPv6 network address.
    Ip6(Ipv6Addr),
    /// `/tcp/<port>` — TCP transport.
    Tcp(u16),
    /// `/udp/<port>` — UDP transport.
    Udp(u16),
    /// `/quic` — legacy QUIC transport marker.
    Quic,
    /// `/quic-v1` — RFC 9000 QUIC transport marker.
    QuicV1,
    /// `/ws` — WebSocket transport marker.
    Ws,
    /// `/wss` — secure WebSocket transport marker.
    Wss,
    /// `/dns/<name>` — resolve via any DNS record.
    Dns(String),
    /// `/dns4/<name>` — resolve to IPv4 only.
    Dns4(String),
    /// `/dns6/<name>` — resolve to IPv6 only.
    Dns6(String),
    /// `/dnsaddr/<name>` — resolve via dnsaddr TXT records (bootstrap list).
    Dnsaddr(String),
    /// `/p2p/<peer-id>` — terminal component naming the remote peer.
    P2p(PeerId),
    /// `/p2p-circuit` — relayed connection through the preceding peer.
    P2pCircuit,
}

impl Protocol {
    /// The multicodec registry code for this protocol.
    pub fn code(&self) -> u64 {
        match self {
            Protocol::Ip4(_) => 4,
            Protocol::Ip6(_) => 41,
            Protocol::Tcp(_) => 6,
            Protocol::Udp(_) => 273,
            Protocol::Quic => 460,
            Protocol::QuicV1 => 461,
            Protocol::Ws => 477,
            Protocol::Wss => 478,
            Protocol::Dns(_) => 53,
            Protocol::Dns4(_) => 54,
            Protocol::Dns6(_) => 55,
            Protocol::Dnsaddr(_) => 56,
            Protocol::P2p(_) => 421,
            Protocol::P2pCircuit => 290,
        }
    }

    /// The protocol's name as it appears in the path representation.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Ip4(_) => "ip4",
            Protocol::Ip6(_) => "ip6",
            Protocol::Tcp(_) => "tcp",
            Protocol::Udp(_) => "udp",
            Protocol::Quic => "quic",
            Protocol::QuicV1 => "quic-v1",
            Protocol::Ws => "ws",
            Protocol::Wss => "wss",
            Protocol::Dns(_) => "dns",
            Protocol::Dns4(_) => "dns4",
            Protocol::Dns6(_) => "dns6",
            Protocol::Dnsaddr(_) => "dnsaddr",
            Protocol::P2p(_) => "p2p",
            Protocol::P2pCircuit => "p2p-circuit",
        }
    }

    /// True for components that describe a transport usable to open a
    /// connection (as opposed to naming / relaying components).
    pub fn is_transport(&self) -> bool {
        matches!(
            self,
            Protocol::Tcp(_)
                | Protocol::Udp(_)
                | Protocol::Quic
                | Protocol::QuicV1
                | Protocol::Ws
                | Protocol::Wss
        )
    }
}

/// A full multiaddress: an ordered list of protocol components.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Multiaddr {
    components: Vec<Protocol>,
}

impl Multiaddr {
    /// The empty multiaddress.
    pub fn empty() -> Multiaddr {
        Multiaddr { components: Vec::new() }
    }

    /// Convenience constructor for the common `/ip4/<a>/tcp/<p>` shape.
    pub fn ip4_tcp(addr: Ipv4Addr, port: u16) -> Multiaddr {
        Multiaddr { components: vec![Protocol::Ip4(addr), Protocol::Tcp(port)] }
    }

    /// Appends a component, builder-style.
    pub fn with(mut self, p: Protocol) -> Multiaddr {
        self.components.push(p);
        self
    }

    /// The components in order.
    pub fn components(&self) -> &[Protocol] {
        &self.components
    }

    /// Whether any component names the given transport-layer protocol.
    pub fn supports_transport(&self, name: &str) -> bool {
        self.components.iter().any(|c| c.is_transport() && c.name() == name)
    }

    /// Returns the trailing PeerID if the address ends with `/p2p/<id>`.
    pub fn peer_id(&self) -> Option<&PeerId> {
        match self.components.last() {
            Some(Protocol::P2p(id)) => Some(id),
            _ => None,
        }
    }

    /// Returns the IPv4/IPv6 address component, if any.
    pub fn ip(&self) -> Option<std::net::IpAddr> {
        self.components.iter().find_map(|c| match c {
            Protocol::Ip4(a) => Some(std::net::IpAddr::V4(*a)),
            Protocol::Ip6(a) => Some(std::net::IpAddr::V6(*a)),
            _ => None,
        })
    }

    /// True if the address routes through a relay (`p2p-circuit`).
    pub fn is_relayed(&self) -> bool {
        self.components.iter().any(|c| matches!(c, Protocol::P2pCircuit))
    }

    /// Parses the path representation, e.g. `/ip4/1.2.3.4/tcp/3333`.
    pub fn parse(s: &str) -> Result<Multiaddr> {
        let mut parts = s.split('/');
        match parts.next() {
            Some("") => {}
            _ => return Err(Error::InvalidAddressValue(s.to_string())),
        }
        let mut components = Vec::new();
        while let Some(name) = parts.next() {
            if name.is_empty() {
                // Allow a single trailing slash; reject `//`.
                if parts.next().is_none() && !components.is_empty() {
                    break;
                }
                return Err(Error::InvalidAddressValue(s.to_string()));
            }
            let mut value = || {
                parts
                    .next()
                    .ok_or_else(|| Error::InvalidAddressValue(format!("/{name} missing value")))
            };
            let comp = match name {
                "ip4" => Protocol::Ip4(
                    value()?.parse().map_err(|_| Error::InvalidAddressValue(s.to_string()))?,
                ),
                "ip6" => Protocol::Ip6(
                    value()?.parse().map_err(|_| Error::InvalidAddressValue(s.to_string()))?,
                ),
                "tcp" => Protocol::Tcp(
                    value()?.parse().map_err(|_| Error::InvalidAddressValue(s.to_string()))?,
                ),
                "udp" => Protocol::Udp(
                    value()?.parse().map_err(|_| Error::InvalidAddressValue(s.to_string()))?,
                ),
                "quic" => Protocol::Quic,
                "quic-v1" => Protocol::QuicV1,
                "ws" => Protocol::Ws,
                "wss" => Protocol::Wss,
                "dns" => Protocol::Dns(value()?.to_string()),
                "dns4" => Protocol::Dns4(value()?.to_string()),
                "dns6" => Protocol::Dns6(value()?.to_string()),
                "dnsaddr" => Protocol::Dnsaddr(value()?.to_string()),
                "p2p" | "ipfs" => Protocol::P2p(PeerId::parse(value()?)?),
                "p2p-circuit" => Protocol::P2pCircuit,
                other => return Err(Error::UnknownProtocol(other.to_string())),
            };
            components.push(comp);
        }
        Ok(Multiaddr { components })
    }

    /// Serializes to the binary representation:
    /// `<varint code> [<len-prefixed or fixed value>]` per component.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for c in &self.components {
            varint::encode(c.code(), &mut out);
            match c {
                Protocol::Ip4(a) => out.extend_from_slice(&a.octets()),
                Protocol::Ip6(a) => out.extend_from_slice(&a.octets()),
                Protocol::Tcp(p) | Protocol::Udp(p) => out.extend_from_slice(&p.to_be_bytes()),
                Protocol::Dns(n) | Protocol::Dns4(n) | Protocol::Dns6(n) | Protocol::Dnsaddr(n) => {
                    varint::encode(n.len() as u64, &mut out);
                    out.extend_from_slice(n.as_bytes());
                }
                Protocol::P2p(id) => {
                    let mh = id.as_multihash().to_bytes();
                    varint::encode(mh.len() as u64, &mut out);
                    out.extend_from_slice(&mh);
                }
                Protocol::Quic
                | Protocol::QuicV1
                | Protocol::Ws
                | Protocol::Wss
                | Protocol::P2pCircuit => {}
            }
        }
        out
    }

    /// Parses the binary representation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Multiaddr> {
        let mut slice = bytes;
        let mut components = Vec::new();
        while !slice.is_empty() {
            let code = varint::take(&mut slice)?;
            let comp = match code {
                4 => {
                    let o = take_fixed::<4>(&mut slice)?;
                    Protocol::Ip4(Ipv4Addr::from(o))
                }
                41 => {
                    let o = take_fixed::<16>(&mut slice)?;
                    Protocol::Ip6(Ipv6Addr::from(o))
                }
                6 | 273 => {
                    let o = take_fixed::<2>(&mut slice)?;
                    let port = u16::from_be_bytes(o);
                    if code == 6 {
                        Protocol::Tcp(port)
                    } else {
                        Protocol::Udp(port)
                    }
                }
                460 => Protocol::Quic,
                461 => Protocol::QuicV1,
                477 => Protocol::Ws,
                478 => Protocol::Wss,
                290 => Protocol::P2pCircuit,
                53..=56 => {
                    let len = varint::take(&mut slice)? as usize;
                    if slice.len() < len {
                        return Err(Error::UnexpectedEnd);
                    }
                    let name = String::from_utf8(slice[..len].to_vec())
                        .map_err(|_| Error::InvalidAddressValue("non-utf8 dns".into()))?;
                    slice = &slice[len..];
                    match code {
                        53 => Protocol::Dns(name),
                        54 => Protocol::Dns4(name),
                        55 => Protocol::Dns6(name),
                        _ => Protocol::Dnsaddr(name),
                    }
                }
                421 => {
                    let len = varint::take(&mut slice)? as usize;
                    if slice.len() < len {
                        return Err(Error::UnexpectedEnd);
                    }
                    let mh = crate::Multihash::from_bytes(&slice[..len])?;
                    slice = &slice[len..];
                    Protocol::P2p(PeerId::from_multihash(mh))
                }
                other => return Err(Error::UnknownProtocol(format!("code {other}"))),
            };
            components.push(comp);
        }
        Ok(Multiaddr { components })
    }
}

fn take_fixed<const N: usize>(slice: &mut &[u8]) -> Result<[u8; N]> {
    if slice.len() < N {
        return Err(Error::UnexpectedEnd);
    }
    let mut out = [0u8; N];
    out.copy_from_slice(&slice[..N]);
    *slice = &slice[N..];
    Ok(out)
}

impl core::fmt::Display for Multiaddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for c in &self.components {
            write!(f, "/{}", c.name())?;
            match c {
                Protocol::Ip4(a) => write!(f, "/{a}")?,
                Protocol::Ip6(a) => write!(f, "/{a}")?,
                Protocol::Tcp(p) | Protocol::Udp(p) => write!(f, "/{p}")?,
                Protocol::Dns(n) | Protocol::Dns4(n) | Protocol::Dns6(n) | Protocol::Dnsaddr(n) => {
                    write!(f, "/{n}")?
                }
                Protocol::P2p(id) => write!(f, "/{id}")?,
                _ => {}
            }
        }
        Ok(())
    }
}

impl core::str::FromStr for Multiaddr {
    type Err = Error;
    fn from_str(s: &str) -> Result<Multiaddr> {
        Multiaddr::parse(s)
    }
}

// Referenced by PeerId::to_base58 via Multibase; keep the import used.
#[allow(unused)]
fn _uses(_: Multibase) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Keypair;

    #[test]
    fn parse_display_roundtrip() {
        for s in [
            "/ip4/1.2.3.4/tcp/3333",
            "/ip4/127.0.0.1/udp/4001/quic-v1",
            "/ip6/::1/tcp/4001/ws",
            "/dns4/bootstrap.libp2p.io/tcp/443/wss",
            "/dnsaddr/bootstrap.libp2p.io",
        ] {
            let ma = Multiaddr::parse(s).unwrap();
            assert_eq!(ma.to_string(), s);
        }
    }

    #[test]
    fn paper_figure2_example_shape() {
        // Figure 2: /ip4/1.2.3.4/tcp/3333/p2p/QmZyWQ14...
        let kp = Keypair::from_seed(7);
        let ma =
            Multiaddr::ip4_tcp(Ipv4Addr::new(1, 2, 3, 4), 3333).with(Protocol::P2p(kp.peer_id()));
        let s = ma.to_string();
        assert!(s.starts_with("/ip4/1.2.3.4/tcp/3333/p2p/"), "{s}");
        let back = Multiaddr::parse(&s).unwrap();
        assert_eq!(back, ma);
        assert_eq!(back.peer_id(), Some(&kp.peer_id()));
    }

    #[test]
    fn binary_roundtrip() {
        let kp = Keypair::from_seed(1);
        let addrs = [
            Multiaddr::parse("/ip4/10.0.0.1/tcp/4001").unwrap(),
            Multiaddr::parse("/ip6/2001:db8::1/udp/4001/quic-v1").unwrap(),
            Multiaddr::parse("/dns/node.example.org/tcp/443/wss").unwrap(),
            Multiaddr::ip4_tcp(Ipv4Addr::new(9, 8, 7, 6), 1)
                .with(Protocol::P2p(kp.peer_id()))
                .with(Protocol::P2pCircuit),
        ];
        for ma in addrs {
            let bytes = ma.to_bytes();
            assert_eq!(Multiaddr::from_bytes(&bytes).unwrap(), ma);
        }
    }

    #[test]
    fn transports_and_relay_queries() {
        let ma = Multiaddr::parse("/ip4/1.1.1.1/udp/4001/quic-v1").unwrap();
        assert!(ma.supports_transport("quic-v1"));
        assert!(!ma.supports_transport("tcp"));
        assert!(!ma.is_relayed());

        let relay = Multiaddr::parse("/ip4/1.1.1.1/tcp/4001/p2p-circuit").unwrap();
        assert!(relay.is_relayed());
    }

    #[test]
    fn ipfs_alias_accepted() {
        let kp = Keypair::from_seed(3);
        let s = format!("/ip4/5.5.5.5/tcp/1/ipfs/{}", kp.peer_id());
        let ma = Multiaddr::parse(&s).unwrap();
        assert_eq!(ma.peer_id(), Some(&kp.peer_id()));
        // Canonical rendering uses /p2p/.
        assert!(ma.to_string().contains("/p2p/"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(Multiaddr::parse("ip4/1.2.3.4").is_err()); // missing leading /
        assert!(Multiaddr::parse("/ip4/999.0.0.1/tcp/1").is_err());
        assert!(Multiaddr::parse("/ip4/1.2.3.4/tcp/70000").is_err());
        assert!(Multiaddr::parse("/tcp").is_err()); // missing value
        assert!(Multiaddr::parse("/nosuch/1").is_err());
    }

    #[test]
    fn ip_extraction() {
        let ma = Multiaddr::parse("/ip4/4.3.2.1/tcp/80").unwrap();
        assert_eq!(ma.ip(), Some("4.3.2.1".parse().unwrap()));
        assert_eq!(Multiaddr::empty().ip(), None);
    }

    /// Arbitrary bytes never panic the decoder, and every value it accepts
    /// re-encodes to bytes that decode back to an equal value. A valid
    /// encoding with one byte overwritten reaches the `Ok` path that random
    /// bytes seldom do.
    #[test]
    fn proptest_from_bytes_survives_arbitrary_input() {
        use proptest::prelude::*;
        let peer = Keypair::from_seed(1).peer_id();
        let valid = Multiaddr::parse(&format!("/dns4/example.com/tcp/4001/ws/p2p/{peer}"))
            .unwrap()
            .to_bytes();
        proptest!(ProptestConfig::with_cases(256), |(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            at in any::<usize>(),
            byte in any::<u8>(),
        )| {
            let mut mutated = valid.clone();
            mutated[at % valid.len()] = byte;
            for input in [&bytes, &mutated] {
                if let Ok(ma) = Multiaddr::from_bytes(input) {
                    prop_assert_eq!(Multiaddr::from_bytes(&ma.to_bytes()).unwrap(), ma);
                }
            }
        });
    }
}
