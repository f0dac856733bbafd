//! The `M = 1` world: one process that is the only processor group and
//! the global layer at once. The SCF driver runs the same stage sequence
//! over it as over any other communicator.

use crate::{CommError, Communicator};

/// A size-1 world. The broadcast hands rank 0's payload back, and
/// point-to-point traffic is a protocol error because there is no peer
/// to address.
#[derive(Clone, Copy, Debug, Default)]
pub struct SingleProcess;

impl SingleProcess {
    /// Builds the single-process communicator.
    pub fn new() -> Self {
        SingleProcess
    }
}

impl Communicator for SingleProcess {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn send(&self, to: usize, tag: u32, _payload: &[u8]) -> Result<(), CommError> {
        Err(CommError::Protocol {
            detail: format!("send to rank {to} (tag {tag}) in a single-process world"),
        })
    }

    fn recv(&self, from: usize, tag: u32) -> Result<Vec<u8>, CommError> {
        Err(CommError::Protocol {
            detail: format!("recv from rank {from} (tag {tag}) in a single-process world"),
        })
    }

    fn broadcast(&self, payload: Vec<u8>) -> Result<Vec<u8>, CommError> {
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_is_identity_and_point_to_point_a_protocol_error() {
        let c = SingleProcess::new();
        assert_eq!((c.rank(), c.size()), (0, 1));
        assert_eq!(c.broadcast(vec![1, 2, 3]).unwrap(), vec![1, 2, 3]);
        assert!(matches!(c.send(1, 0, &[]), Err(CommError::Protocol { .. })));
        assert!(matches!(c.recv(1, 0), Err(CommError::Protocol { .. })));
    }
}
