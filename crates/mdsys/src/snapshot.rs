//! Versioned binary snapshots of full MD state with per-section
//! integrity checksums: the fault-tolerant driver's checkpoints.
//!
//! A partially written file must be diagnosed, not half-parsed, and a
//! flipped bit inside a coordinate must not restore into silently wrong
//! physics. So the container is little-endian binary and each of its
//! sections — step and atom count, box, positions, velocities, forces,
//! the THRM record, the auxiliary per-step energy log — carries an
//! FNV-1a 64-bit checksum: truncation and bit flips are detected at
//! restore time and classified precisely. All floats are stored via
//! `f64::to_le_bytes`, so a decode→encode round trip is bit-identical
//! (NaN payloads included) and restore reproduces the saved
//! trajectory exactly.
//!
//! THRM is a fixed record of 25 zero bytes ("no thermostat, noise
//! cursor 0"): the only one any writer ever produced. It stays on disk
//! so that every checkpoint keeps its bytes and its format version;
//! a decoder rejects any other THRM payload as malformed.
//!
//! Layout:
//!
//! ```text
//! magic   b"CPCSNAP\0"                      8 bytes
//! version u32                               4 bytes
//! nsect   u32                               4 bytes
//! section := tag [4 ascii] | len u64 | payload [len] | fnv1a64(tag‖len‖payload)
//! ```

use crate::pbc::PbcBox;
use crate::system::System;
use crate::vec3::Vec3;

/// File magic for snapshot containers.
pub(crate) const SNAPSHOT_MAGIC: [u8; 8] = *b"CPCSNAP\0";
/// Current container format version.
pub(crate) const SNAPSHOT_VERSION: u32 = 1;
/// Payload of the THRM section, the only one ever written: a zero tag
/// byte, two zero `f64` parameters and a zero `u64` noise cursor.
const THRM_RECORD: [u8; 25] = [0; 25];

/// Why a snapshot failed to decode. Distinguishing truncation from
/// corruption from format drift lets the checkpoint store report
/// *which* failure mode a fallback skipped over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer is shorter than a complete header or section.
    Truncated {
        /// What was being read when the data ran out.
        context: &'static str,
    },
    /// The file does not start with `SNAPSHOT_MAGIC`.
    BadMagic,
    /// The container version is newer than this code understands.
    UnsupportedVersion(u32),
    /// A section's stored checksum does not match its payload.
    ChecksumMismatch {
        /// Four-character section tag, e.g. `"POS_"`.
        section: String,
    },
    /// A section decoded but its contents are inconsistent (wrong
    /// element count, a THRM payload other than the zero record, ...).
    Malformed {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// A required section is absent.
    MissingSection {
        /// Four-character tag of the absent section.
        section: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            SnapshotError::Malformed { detail } => write!(f, "malformed snapshot: {detail}"),
            SnapshotError::MissingSection { section } => {
                write!(f, "snapshot is missing section {section}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit hash, the integrity check for each section.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A complete, restartable MD state: everything the fault-tolerant
/// driver needs to resume a trajectory bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct MdSnapshot {
    /// Step index the state corresponds to (state *after* this many
    /// completed steps).
    pub step: u64,
    /// Periodic box edge lengths.
    pub box_lengths: Vec3,
    /// Atom positions (Angstrom).
    pub positions: Vec<Vec3>,
    /// Atom velocities (Angstrom/ps).
    pub velocities: Vec<Vec3>,
    /// Forces at `step`, so integration resumes without re-evaluating.
    pub forces: Vec<Vec3>,
    /// Auxiliary per-step log carried through restarts (the parallel
    /// driver stores `[classic, pme, kinetic]` energies per step).
    pub aux: Vec<[f64; 3]>,
}

impl MdSnapshot {
    /// Captures a snapshot of `system` and its `forces` at `step`.
    pub fn capture(system: &System, forces: &[Vec3], step: u64) -> Self {
        MdSnapshot {
            step,
            box_lengths: system.pbox.lengths,
            positions: system.positions.clone(),
            velocities: system.velocities.clone(),
            forces: forces.to_vec(),
            aux: Vec::new(),
        }
    }

    /// Restores positions, velocities and box into `system`,
    /// bit-identically to what [`capture`](Self::capture) saw.
    ///
    /// # Panics
    /// Panics if the snapshot's atom count differs from the system's —
    /// restoring across topologies is always a logic error.
    pub fn restore_into(&self, system: &mut System) {
        assert_eq!(
            self.positions.len(),
            system.n_atoms(),
            "snapshot atom count mismatch"
        );
        system.pbox = PbcBox::new(self.box_lengths.x, self.box_lengths.y, self.box_lengths.z);
        system.positions.clone_from(&self.positions);
        system.velocities.clone_from(&self.velocities);
    }

    /// Serialized size in bytes (exact).
    pub(crate) fn encoded_len(&self) -> usize {
        let vec3_payload = |v: &Vec<Vec3>| v.len() * 24;
        let section = |payload: usize| 4 + 8 + payload + 8;
        16 + section(16)
            + section(24)
            + section(vec3_payload(&self.positions))
            + section(vec3_payload(&self.velocities))
            + section(vec3_payload(&self.forces))
            + section(THRM_RECORD.len())
            + section(8 + self.aux.len() * 24)
    }

    /// Encodes the snapshot into the versioned container format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&7u32.to_le_bytes());

        let mut meta = Vec::with_capacity(16);
        meta.extend_from_slice(&self.step.to_le_bytes());
        meta.extend_from_slice(&(self.positions.len() as u64).to_le_bytes());
        push_section(&mut out, *b"META", &meta);

        let mut boxp = Vec::with_capacity(24);
        push_vec3(&mut boxp, self.box_lengths);
        push_section(&mut out, *b"BOX_", &boxp);

        push_section(&mut out, *b"POS_", &encode_vec3s(&self.positions));
        push_section(&mut out, *b"VEL_", &encode_vec3s(&self.velocities));
        push_section(&mut out, *b"FRC_", &encode_vec3s(&self.forces));

        push_section(&mut out, *b"THRM", &THRM_RECORD);

        let mut aux = Vec::with_capacity(8 + self.aux.len() * 24);
        aux.extend_from_slice(&(self.aux.len() as u64).to_le_bytes());
        for row in &self.aux {
            for x in row {
                aux.extend_from_slice(&x.to_le_bytes());
            }
        }
        push_section(&mut out, *b"AUX_", &aux);

        debug_assert_eq!(out.len(), self.encoded_len());
        out
    }

    /// Decodes and integrity-checks a snapshot container.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(8, "magic")? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32("version")?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let nsect = r.u32("section count")?;

        let mut step = None;
        let mut n_atoms = None;
        let mut box_lengths = None;
        let mut positions = None;
        let mut velocities = None;
        let mut forces = None;
        let mut thrm = None;
        let mut aux = Vec::new();

        for _ in 0..nsect {
            let (tag, payload) = r.section()?;
            let mut p = Reader {
                bytes: payload,
                pos: 0,
            };
            match &tag {
                b"META" => {
                    step = Some(p.u64("META.step")?);
                    n_atoms = Some(p.u64("META.n_atoms")? as usize);
                }
                b"BOX_" => {
                    box_lengths = Some(p.vec3("BOX_")?);
                }
                b"POS_" => positions = Some(decode_vec3s(payload, "POS_")?),
                b"VEL_" => velocities = Some(decode_vec3s(payload, "VEL_")?),
                b"FRC_" => forces = Some(decode_vec3s(payload, "FRC_")?),
                b"THRM" => {
                    if payload != THRM_RECORD {
                        return Err(SnapshotError::Malformed {
                            detail: format!(
                                "THRM is not the {}-byte zero record",
                                THRM_RECORD.len()
                            ),
                        });
                    }
                    thrm = Some(());
                }
                b"AUX_" => {
                    let n = p.u64("AUX_.count")? as usize;
                    if payload.len() != 8 + n * 24 {
                        return Err(SnapshotError::Malformed {
                            detail: format!(
                                "AUX_ declares {n} rows but carries {} bytes",
                                payload.len()
                            ),
                        });
                    }
                    aux = Vec::with_capacity(n);
                    for _ in 0..n {
                        aux.push([p.f64("AUX_.row")?, p.f64("AUX_.row")?, p.f64("AUX_.row")?]);
                    }
                }
                // Unknown sections are skipped: older readers stay
                // forward-compatible with appended sections.
                _ => {}
            }
        }

        let snapshot = MdSnapshot {
            step: step.ok_or(SnapshotError::MissingSection { section: "META" })?,
            box_lengths: box_lengths.ok_or(SnapshotError::MissingSection { section: "BOX_" })?,
            positions: positions.ok_or(SnapshotError::MissingSection { section: "POS_" })?,
            velocities: velocities.ok_or(SnapshotError::MissingSection { section: "VEL_" })?,
            forces: forces.ok_or(SnapshotError::MissingSection { section: "FRC_" })?,
            aux,
        };
        thrm.ok_or(SnapshotError::MissingSection { section: "THRM" })?;
        let expect = n_atoms.ok_or(SnapshotError::MissingSection { section: "META" })?;
        for (name, len) in [
            ("POS_", snapshot.positions.len()),
            ("VEL_", snapshot.velocities.len()),
            ("FRC_", snapshot.forces.len()),
        ] {
            if len != expect {
                return Err(SnapshotError::Malformed {
                    detail: format!("{name} has {len} atoms, META declares {expect}"),
                });
            }
        }
        Ok(snapshot)
    }
}

fn push_vec3(out: &mut Vec<u8>, v: Vec3) {
    out.extend_from_slice(&v.x.to_le_bytes());
    out.extend_from_slice(&v.y.to_le_bytes());
    out.extend_from_slice(&v.z.to_le_bytes());
}

fn encode_vec3s(vs: &[Vec3]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vs.len() * 24);
    for &v in vs {
        push_vec3(&mut out, v);
    }
    out
}

fn decode_vec3s(payload: &[u8], section: &'static str) -> Result<Vec<Vec3>, SnapshotError> {
    if !payload.len().is_multiple_of(24) {
        return Err(SnapshotError::Malformed {
            detail: format!("{section} payload is not a multiple of 24 bytes"),
        });
    }
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let mut out = Vec::with_capacity(payload.len() / 24);
    while r.pos < payload.len() {
        out.push(r.vec3(section)?);
    }
    Ok(out)
}

fn push_section(out: &mut Vec<u8>, tag: [u8; 4], payload: &[u8]) {
    let start = out.len();
    out.extend_from_slice(&tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let checksum = fnv1a64(&out[start..]);
    out.extend_from_slice(&checksum.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SnapshotError::Truncated { context })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self, context: &'static str) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    fn vec3(&mut self, context: &'static str) -> Result<Vec3, SnapshotError> {
        Ok(Vec3::new(
            self.f64(context)?,
            self.f64(context)?,
            self.f64(context)?,
        ))
    }

    /// Reads one `tag | len | payload | checksum` section, verifying
    /// the checksum before handing the payload out.
    fn section(&mut self) -> Result<([u8; 4], &'a [u8]), SnapshotError> {
        let start = self.pos;
        let tag: [u8; 4] = self.take(4, "section tag")?.try_into().expect("4-byte tag");
        let len = self.u64("section length")? as usize;
        let payload = self.take(len, "section payload")?;
        let computed = fnv1a64(&self.bytes[start..self.pos]);
        let stored = self.u64("section checksum")?;
        if computed != stored {
            return Err(SnapshotError::ChecksumMismatch {
                section: String::from_utf8_lossy(&tag).into_owned(),
            });
        }
        Ok((tag, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::water_box;

    /// A fixed snapshot whose every input is exact arithmetic, so its
    /// bytes are the same on every host.
    fn sample() -> MdSnapshot {
        let mut sys = water_box(2, 3.1);
        for (i, v) in sys.velocities.iter_mut().enumerate() {
            let k = i as f64;
            *v = Vec3::new(0.125 * k, -0.5 * k, 1.0 / (k + 1.0));
        }
        let forces: Vec<Vec3> = sys
            .positions
            .iter()
            .map(|p| Vec3::new(p.x * 0.5, -p.y, p.z - 1.0))
            .collect();
        let mut snap = MdSnapshot::capture(&sys, &forces, 42);
        snap.aux = vec![[1.5, -2.25, 3.125], [f64::NAN, 0.0, -0.0]];
        snap
    }

    /// `fnv1a64` of `sample().encode()`, recorded when the container
    /// still had writable thermostat fields. The encoder must keep
    /// every byte, the THRM record included.
    const SAMPLE_FNV: u64 = 0xc3f5138abfcb52dc;

    #[test]
    fn the_encoded_bytes_are_pinned() {
        let bytes = sample().encode();
        assert_eq!(bytes.len(), 2005);
        assert_eq!(fnv1a64(&bytes), SAMPLE_FNV, "snapshot bytes moved");
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let snap = sample();
        let bytes = snap.encode();
        assert_eq!(bytes.len(), snap.encoded_len());
        let back = MdSnapshot::decode(&bytes).unwrap();
        // PartialEq would reject NaN == NaN; compare the re-encoding,
        // which is exactly the stored bit pattern.
        assert_eq!(bytes, back.encode());
        assert_eq!(back.step, 42);
        assert_eq!(back.positions, snap.positions);
        assert_eq!(back.velocities, snap.velocities);
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().encode();
        for cut in [0, 7, 15, bytes.len() / 2, bytes.len() - 1] {
            let err = MdSnapshot::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::BadMagic
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn every_flipped_bit_in_a_payload_is_detected() {
        let snap = sample();
        let clean = snap.encode();
        // Flip one bit in each section's payload region; the section
        // checksum must catch all of them.
        for byte_idx in (16..clean.len()).step_by(97) {
            let mut dirty = clean.clone();
            dirty[byte_idx] ^= 0x10;
            assert!(
                MdSnapshot::decode(&dirty).is_err(),
                "flip at byte {byte_idx} went undetected"
            );
        }
    }

    #[test]
    fn restore_into_reproduces_state() {
        let mut sys = water_box(2, 3.1);
        sys.assign_velocities(300.0, 7);
        let reference = sys.clone();
        let snap = MdSnapshot::capture(&sys, &[], 3);
        // Perturb, then restore.
        for p in &mut sys.positions {
            *p += Vec3::splat(1.0);
        }
        sys.velocities.iter_mut().for_each(|v| *v = Vec3::ZERO);
        let snap = MdSnapshot {
            forces: vec![Vec3::ZERO; reference.n_atoms()],
            ..snap
        };
        snap.restore_into(&mut sys);
        assert_eq!(sys.positions, reference.positions);
        assert_eq!(sys.velocities, reference.velocities);
    }

    #[test]
    fn unknown_thermostat_tag_is_malformed() {
        // Re-seal the THRM section around a replacement payload, as a
        // writer with a thermostat would have: only the checksum-valid
        // zero record may decode.
        let reseal = |payload: &[u8]| {
            let clean = sample().encode();
            let pos = clean
                .windows(4)
                .position(|w| w == b"THRM")
                .expect("THRM present");
            let end = pos + 12 + THRM_RECORD.len() + 8;
            let mut section = Vec::new();
            push_section(&mut section, *b"THRM", payload);
            [&clean[..pos], &section[..], &clean[end..]].concat()
        };
        assert!(MdSnapshot::decode(&reseal(&THRM_RECORD)).is_ok());
        let mut berendsen = THRM_RECORD;
        berendsen[0] = 1;
        let mut cursor = THRM_RECORD;
        cursor[17] = 1;
        for (case, payload) in [
            ("tag 1", &berendsen[..]),
            ("tag 0, cursor 1", &cursor[..]),
            ("24-byte record", &THRM_RECORD[..24]),
        ] {
            let err = MdSnapshot::decode(&reseal(payload)).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Malformed { .. }),
                "{case}: {err:?}"
            );
        }
    }
}
