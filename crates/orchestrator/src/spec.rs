//! Fleet composition: named board profiles and the spec an orchestrated
//! fleet is built from.

use omniboost_hw::Board;

/// A named hardware profile — one *kind* of board a fleet runs.
///
/// The name is for reports and examples; identity (cache segments,
/// placement scoring) always keys on [`Board::fingerprint`].
#[derive(Debug, Clone, PartialEq)]
pub struct BoardProfile {
    /// Human-readable profile name (e.g. `"hikey970"`, `"hikey970-lite"`).
    pub name: String,
    /// The hardware description.
    pub board: Board,
}

impl BoardProfile {
    /// Creates a named profile.
    pub fn new(name: impl Into<String>, board: Board) -> Self {
        Self {
            name: name.into(),
            board,
        }
    }

    /// The full-spec HiKey970 profile.
    pub fn hikey970() -> Self {
        Self::new("hikey970", Board::hikey970())
    }

    /// The degraded HiKey970 profile ([`Board::hikey970_lite`]).
    pub fn hikey970_lite() -> Self {
        Self::new("hikey970-lite", Board::hikey970_lite())
    }

    /// The GPU-masked HiKey970 profile ([`Board::hikey970_gpu_down`]) —
    /// the brown-out target of
    /// [`omniboost_models::FleetEvent::BoardDegrade`] events: same
    /// chassis, Mali disabled, tighter concurrency cap.
    pub fn hikey970_gpu_down() -> Self {
        Self::new("hikey970-gpu-down", Board::hikey970_gpu_down())
    }
}

/// What a fleet is made of: the boards alive at t = 0 and the profile
/// pool that [`omniboost_models::FleetEvent::BoardJoin`] events draw
/// from (the event carries a pool *index* because the trace layer
/// cannot see hardware types).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Boards alive at trace start, in slot-index order.
    pub initial: Vec<BoardProfile>,
    /// Profiles joined boards are built from; an empty pool makes join
    /// events no-ops.
    pub join_profiles: Vec<BoardProfile>,
    /// Weakened profiles [`omniboost_models::FleetEvent::BoardDegrade`]
    /// events swap a board to **in place** (the event carries a pool
    /// index, resolved modulo this pool like joins). An empty pool makes
    /// degrade events no-ops. The constructors default to the two
    /// brown-out modes of the reproduction: the binned-silicon
    /// [`BoardProfile::hikey970_lite`] and the device-masked
    /// [`BoardProfile::hikey970_gpu_down`].
    pub degrade_profiles: Vec<BoardProfile>,
}

/// The default brown-out pool: a clocked-down chassis and a GPU-masked
/// one.
fn default_degrade_profiles() -> Vec<BoardProfile> {
    vec![
        BoardProfile::hikey970_lite(),
        BoardProfile::hikey970_gpu_down(),
    ]
}

impl FleetSpec {
    /// `n` identical boards, joins reusing the same profile.
    pub fn homogeneous(n: usize, profile: BoardProfile) -> Self {
        Self {
            initial: vec![profile.clone(); n],
            join_profiles: vec![profile],
            degrade_profiles: default_degrade_profiles(),
        }
    }

    /// An explicit heterogeneous fleet; joins draw from the same set of
    /// distinct profiles that appear in the initial fleet.
    pub fn heterogeneous(initial: Vec<BoardProfile>) -> Self {
        let mut join_profiles: Vec<BoardProfile> = Vec::new();
        for p in &initial {
            if !join_profiles
                .iter()
                .any(|q| q.board.fingerprint() == p.board.fingerprint())
            {
                join_profiles.push(p.clone());
            }
        }
        Self {
            initial,
            join_profiles,
            degrade_profiles: default_degrade_profiles(),
        }
    }

    /// Number of boards alive at t = 0.
    pub fn initial_boards(&self) -> usize {
        self.initial.len()
    }
}
