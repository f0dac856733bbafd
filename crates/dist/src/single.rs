//! The `M = 1` world: one process that is the only processor group and
//! the global layer at once. The SCF driver runs the same stage sequence
//! over it as over any other communicator.

use crate::{CommError, Communicator};
use ls3df_obs::{counter_add, span, Counter};

/// A size-1 world. Collectives are no-ops (a barrier over one rank is
/// trivially satisfied; an allreduce of one contribution is identity),
/// and point-to-point traffic is a protocol error because there is no
/// peer to address.
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

    fn barrier(&self) -> Result<(), CommError> {
        Ok(())
    }

    fn broadcast(&self, root: usize, payload: Vec<u8>) -> Result<Vec<u8>, CommError> {
        if root != 0 {
            return Err(CommError::Protocol {
                detail: format!("broadcast root {root} out of range in a single-process world"),
            });
        }
        Ok(payload)
    }

    fn allreduce_sum_f64(&self, _values: &mut [f64]) -> Result<(), CommError> {
        // Same span label as the multi-process backend, so reports
        // attribute collectives identically at any group count.
        let _span = span!("comm_allreduce");
        counter_add(Counter::CommAllreduceCalls, 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collectives_are_identity() {
        let c = SingleProcess::new();
        assert_eq!((c.rank(), c.size()), (0, 1));
        c.barrier().unwrap();
        assert_eq!(c.broadcast(0, vec![1, 2, 3]).unwrap(), vec![1, 2, 3]);
        let mut v = [1.5, -2.0];
        c.allreduce_sum_f64(&mut v).unwrap();
        assert_eq!(v, [1.5, -2.0]);
    }

    #[test]
    fn point_to_point_is_a_protocol_error() {
        let c = SingleProcess::new();
        assert!(matches!(c.send(1, 0, &[]), Err(CommError::Protocol { .. })));
        assert!(matches!(c.recv(1, 0), Err(CommError::Protocol { .. })));
        assert!(matches!(
            c.broadcast(2, Vec::new()),
            Err(CommError::Protocol { .. })
        ));
    }
}
