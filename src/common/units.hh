/**
 * @file
 * Units and compile-time unit safety for the optical power models.
 *
 * All optical powers are carried in watts; losses are expressed in
 * decibels in configuration structs and converted to linear ratios at
 * the model boundary.  A loss of x dB corresponds to an attenuation
 * factor of 10^(x/10) >= 1 (power divided by the factor).
 *
 * The strong types below make dB-vs-linear and uW-vs-W mix-ups a
 * compile error instead of a silently corrupted Eq. 1 / Eq. 2 result:
 *
 *  - DecibelLoss   a signed dB quantity (losses, margins, skews)
 *  - LinearFactor  a dimensionless power ratio (transmission >= 0)
 *  - WattPower     an absolute optical/electrical power in watts
 *  - Meters        a physical length
 *
 * Every wrapper is a zero-overhead single double with explicit
 * construction and explicit, named conversions
 * (DecibelLoss::toTransmission() -> LinearFactor, WattPower::fromDbm,
 * ...).  Raw 10^(x/10) math must not appear outside this header;
 * mnoc-analyze's raw-pow rule enforces that invariant.
 */

#ifndef MNOC_COMMON_UNITS_HH
#define MNOC_COMMON_UNITS_HH

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/log.hh"

namespace mnoc {

/** One microwatt in watts. */
inline constexpr double microWatt = 1e-6;
/** One milliwatt in watts. */
inline constexpr double milliWatt = 1e-3;
/** One centimeter in meters. */
inline constexpr double centimeter = 1e-2;
/** One millimeter in meters. */
inline constexpr double millimeter = 1e-3;
/** One nanosecond in seconds. */
inline constexpr double nanosecond = 1e-9;
/** One gigahertz in hertz. */
inline constexpr double gigahertz = 1e9;

/**
 * Convert a loss in dB to the linear attenuation factor (>= 1 for
 * positive dB).  Power after the loss is power_before / factor.
 *
 * @param db Loss in decibels.
 * @return Linear attenuation factor 10^(db/10).
 */
inline double
dbToAttenuation(double db)
{
    return std::pow(10.0, db / 10.0);
}

/**
 * Convert a loss in dB to the linear transmission factor (<= 1 for
 * positive dB).  Power after the loss is power_before * factor.
 *
 * @param db Loss in decibels.
 * @return Linear transmission factor 10^(-db/10).
 */
inline double
dbToTransmission(double db)
{
    return std::pow(10.0, -db / 10.0);
}

/**
 * Convert a linear power ratio to decibels.
 *
 * @param ratio Power ratio; must be positive.
 * @return 10*log10(ratio).
 */
inline double
ratioToDb(double ratio)
{
    panicIf(ratio <= 0.0, "ratioToDb requires a positive ratio");
    return 10.0 * std::log10(ratio);
}

class LinearFactor;

/**
 * A signed quantity in decibels.  Positive values are losses (or
 * margins above a threshold); negative values are gains (or levels
 * below a threshold).  Purely additive: two DecibelLoss values add and
 * subtract, and scale by dimensionless doubles, but never multiply
 * each other.
 */
class DecibelLoss
{
  public:
    constexpr DecibelLoss() = default;
    /** Wrap a raw dB value; the only way in from a bare double. */
    explicit constexpr DecibelLoss(double db) : db_(db) {}

    /** The raw value in dB. */
    constexpr double dB() const { return db_; }

    /** 10^(-dB/10): multiply a power by this to apply the loss. */
    LinearFactor toTransmission() const;
    /** 10^(+dB/10): divide a power by this to apply the loss. */
    LinearFactor toAttenuation() const;

    constexpr DecibelLoss operator-() const { return DecibelLoss(-db_); }
    constexpr DecibelLoss
    operator+(DecibelLoss other) const
    {
        return DecibelLoss(db_ + other.db_);
    }
    constexpr DecibelLoss
    operator-(DecibelLoss other) const
    {
        return DecibelLoss(db_ - other.db_);
    }
    constexpr DecibelLoss &
    operator+=(DecibelLoss other)
    {
        db_ += other.db_;
        return *this;
    }
    constexpr DecibelLoss &
    operator-=(DecibelLoss other)
    {
        db_ -= other.db_;
        return *this;
    }
    constexpr DecibelLoss
    operator*(double scale) const
    {
        return DecibelLoss(db_ * scale);
    }
    constexpr DecibelLoss
    operator/(double scale) const
    {
        return DecibelLoss(db_ / scale);
    }
    constexpr DecibelLoss &
    operator*=(double scale)
    {
        db_ *= scale;
        return *this;
    }
    friend constexpr DecibelLoss
    operator*(double scale, DecibelLoss x)
    {
        return DecibelLoss(scale * x.db_);
    }
    constexpr auto operator<=>(const DecibelLoss &) const = default;

  private:
    double db_ = 0.0;
};

/**
 * A dimensionless linear power ratio: transmissions (<= 1 for lossy
 * elements), attenuations (>= 1), and splitter shares.  Factors
 * compose multiplicatively.
 */
class LinearFactor
{
  public:
    constexpr LinearFactor() = default;
    /** Wrap a raw ratio; must be non-negative where it models power. */
    explicit constexpr LinearFactor(double value) : value_(value) {}

    /** The raw dimensionless ratio. */
    constexpr double value() const { return value_; }

    /** 10*log10(value) as a signed dB quantity; value must be > 0. */
    DecibelLoss
    toDb() const
    {
        return DecibelLoss(ratioToDb(value_));
    }

    constexpr LinearFactor
    operator*(LinearFactor other) const
    {
        return LinearFactor(value_ * other.value_);
    }
    constexpr LinearFactor
    operator/(LinearFactor other) const
    {
        return LinearFactor(value_ / other.value_);
    }
    constexpr LinearFactor &
    operator*=(LinearFactor other)
    {
        value_ *= other.value_;
        return *this;
    }
    constexpr LinearFactor
    inverse() const
    {
        return LinearFactor(1.0 / value_);
    }
    constexpr auto operator<=>(const LinearFactor &) const = default;

  private:
    double value_ = 1.0;
};

inline LinearFactor
DecibelLoss::toTransmission() const
{
    return LinearFactor(dbToTransmission(db_));
}

inline LinearFactor
DecibelLoss::toAttenuation() const
{
    return LinearFactor(dbToAttenuation(db_));
}

/**
 * An absolute power in watts.  Powers add, scale by dimensionless
 * doubles and LinearFactors, and divide into dimensionless ratios;
 * they never multiply each other.
 */
class WattPower
{
  public:
    constexpr WattPower() = default;
    /** Wrap a raw power in watts; the only way in from a bare double. */
    explicit constexpr WattPower(double watts) : watts_(watts) {}

    /** Construct from a dBm level (0 dBm = 1 mW). */
    static WattPower
    fromDbm(double dbm)
    {
        return WattPower(milliWatt * dbToAttenuation(dbm));
    }

    /** The raw value in watts. */
    constexpr double watts() const { return watts_; }
    /** The raw value in microwatts. */
    constexpr double microwatts() const { return watts_ / microWatt; }
    /** The level in dBm; power must be positive. */
    double toDbm() const { return ratioToDb(watts_ / milliWatt); }

    constexpr WattPower
    operator+(WattPower other) const
    {
        return WattPower(watts_ + other.watts_);
    }
    constexpr WattPower
    operator-(WattPower other) const
    {
        return WattPower(watts_ - other.watts_);
    }
    constexpr WattPower &
    operator+=(WattPower other)
    {
        watts_ += other.watts_;
        return *this;
    }
    constexpr WattPower &
    operator-=(WattPower other)
    {
        watts_ -= other.watts_;
        return *this;
    }
    constexpr WattPower
    operator*(double scale) const
    {
        return WattPower(watts_ * scale);
    }
    friend constexpr WattPower
    operator*(double scale, WattPower p)
    {
        return WattPower(scale * p.watts_);
    }
    constexpr WattPower
    operator/(double scale) const
    {
        return WattPower(watts_ / scale);
    }
    /** Ratio of two powers is dimensionless. */
    constexpr double
    operator/(WattPower other) const
    {
        return watts_ / other.watts_;
    }
    /** Apply a transmission: power * factor. */
    constexpr WattPower
    operator*(LinearFactor f) const
    {
        return WattPower(watts_ * f.value());
    }
    friend constexpr WattPower
    operator*(LinearFactor f, WattPower p)
    {
        return WattPower(f.value() * p.watts_);
    }
    /** Apply an attenuation: power / factor. */
    constexpr WattPower
    operator/(LinearFactor f) const
    {
        return WattPower(watts_ / f.value());
    }
    constexpr auto operator<=>(const WattPower &) const = default;

  private:
    double watts_ = 0.0;
};

/** A physical length in meters. */
class Meters
{
  public:
    constexpr Meters() = default;
    /** Wrap a raw length in meters. */
    explicit constexpr Meters(double meters) : meters_(meters) {}

    /** The raw value in meters. */
    constexpr double meters() const { return meters_; }
    /** The raw value in centimeters. */
    constexpr double centimeters() const { return meters_ / centimeter; }

    constexpr Meters
    operator+(Meters other) const
    {
        return Meters(meters_ + other.meters_);
    }
    constexpr Meters
    operator-(Meters other) const
    {
        return Meters(meters_ - other.meters_);
    }
    constexpr Meters
    operator*(double scale) const
    {
        return Meters(meters_ * scale);
    }
    friend constexpr Meters
    operator*(double scale, Meters m)
    {
        return Meters(scale * m.meters_);
    }
    constexpr Meters
    operator/(double scale) const
    {
        return Meters(meters_ / scale);
    }
    /** Ratio of two lengths is dimensionless. */
    constexpr double
    operator/(Meters other) const
    {
        return meters_ / other.meters_;
    }
    constexpr auto operator<=>(const Meters &) const = default;

  private:
    double meters_ = 0.0;
};

/** Absolute length (for |a - b| waveguide distances). */
inline Meters
abs(Meters m)
{
    return Meters(std::fabs(m.meters()));
}

/** Diagnostic printing (log messages, test failure output). */
inline std::ostream &
operator<<(std::ostream &os, DecibelLoss loss)
{
    return os << loss.dB() << " dB";
}

inline std::ostream &
operator<<(std::ostream &os, LinearFactor factor)
{
    return os << factor.value() << "x";
}

inline std::ostream &
operator<<(std::ostream &os, WattPower power)
{
    return os << power.watts() << " W";
}

inline std::ostream &
operator<<(std::ostream &os, Meters length)
{
    return os << length.meters() << " m";
}

namespace unit_literals {

/** 3.5_dB -> DecibelLoss(3.5). */
constexpr DecibelLoss operator""_dB(long double db)
{
    return DecibelLoss(static_cast<double>(db));
}
constexpr DecibelLoss operator""_dB(unsigned long long db)
{
    return DecibelLoss(static_cast<double>(db));
}
/** 2.0_W -> WattPower(2.0). */
constexpr WattPower operator""_W(long double w)
{
    return WattPower(static_cast<double>(w));
}
constexpr WattPower operator""_W(unsigned long long w)
{
    return WattPower(static_cast<double>(w));
}
/** 10_uW -> WattPower(10e-6). */
constexpr WattPower operator""_uW(long double w)
{
    return WattPower(static_cast<double>(w) * microWatt);
}
constexpr WattPower operator""_uW(unsigned long long w)
{
    return WattPower(static_cast<double>(w) * microWatt);
}
/** 5_mW -> WattPower(5e-3). */
constexpr WattPower operator""_mW(long double w)
{
    return WattPower(static_cast<double>(w) * milliWatt);
}
constexpr WattPower operator""_mW(unsigned long long w)
{
    return WattPower(static_cast<double>(w) * milliWatt);
}
/** 0.18_m -> Meters(0.18). */
constexpr Meters operator""_m(long double m)
{
    return Meters(static_cast<double>(m));
}
constexpr Meters operator""_m(unsigned long long m)
{
    return Meters(static_cast<double>(m));
}
/** 18_cm -> Meters(0.18). */
constexpr Meters operator""_cm(long double m)
{
    return Meters(static_cast<double>(m) * centimeter);
}
constexpr Meters operator""_cm(unsigned long long m)
{
    return Meters(static_cast<double>(m) * centimeter);
}

} // namespace unit_literals

/**
 * Relative comparison of two doubles.
 *
 * @param a First value.
 * @param b Second value.
 * @param rel_tol Allowed relative error.
 * @return true when |a-b| <= rel_tol * max(|a|,|b|, 1e-300).
 */
inline bool
nearlyEqual(double a, double b, double rel_tol = 1e-9)
{
    double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
    return std::fabs(a - b) <= rel_tol * scale;
}

/** nearlyEqual over two powers. */
inline bool
nearlyEqual(WattPower a, WattPower b, double rel_tol = 1e-9)
{
    return nearlyEqual(a.watts(), b.watts(), rel_tol);
}

} // namespace mnoc

#endif // MNOC_COMMON_UNITS_HH
