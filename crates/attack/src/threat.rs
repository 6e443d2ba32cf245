//! Threat-model configuration (§3 and Table 1 of the paper).

/// What the attacker knows about the defense.
///
/// In both variants the attacker has white-box knowledge of the *model*
/// (architecture, parameters, bit representation, DRAM addresses); the
/// distinction is knowledge of the *defense* (§3, §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreatModel {
    /// The attacker is unaware of DNN-Defender: it runs the stock BFA and
    /// cannot observe that flips on protected rows never land (it has no
    /// memory read permission, Table 1).
    SemiWhiteBox,
    /// The attacker knows the defense and the secured-bit set and adapts
    /// its search to skip secured bits.
    WhiteBox,
}

impl ThreatModel {
    /// Whether the attacker adapts around the protected set.
    pub fn is_defense_aware(self) -> bool {
        matches!(self, ThreatModel::WhiteBox)
    }
}

/// Knobs of the progressive bit search, shared by every attacker that
/// runs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackConfig {
    /// Stop once eval accuracy falls to this level (e.g. random-guess).
    /// T-BFA ignores it: it stops once its attack success rate reaches
    /// [`crate::tbfa::TBFA_STOP_ASR`].
    pub target_accuracy: f32,
    /// Hard cap on committed bit flips.
    pub max_flips: usize,
    /// How many top-ranked per-layer candidates get an exact loss
    /// evaluation each iteration (the intra-layer / inter-layer search of
    /// [Rakin et al. 2019] evaluates every layer; pre-screening by the
    /// first-order gain keeps the reproduction fast while preserving the
    /// selection behaviour — set to `usize::MAX` for the exact search).
    pub evaluate_top_k: usize,
    /// Record accuracy on the eval batch every `record_every` flips
    /// (1 = every flip). T-BFA ignores it: it measures its attack
    /// success rate after every flip.
    pub record_every: usize,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            target_accuracy: 0.11,
            max_flips: 50,
            evaluate_top_k: 3,
            record_every: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn awareness_flag() {
        assert!(!ThreatModel::SemiWhiteBox.is_defense_aware());
        assert!(ThreatModel::WhiteBox.is_defense_aware());
    }

    #[test]
    fn default_config_is_sane() {
        let c = AttackConfig::default();
        assert!(c.target_accuracy > 0.0 && c.target_accuracy < 1.0);
        assert!(c.max_flips > 0);
        assert!(c.evaluate_top_k >= 1);
    }
}
