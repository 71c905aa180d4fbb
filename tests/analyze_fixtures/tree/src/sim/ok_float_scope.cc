// src/sim is not power math, so float is allowed here.
float loadFactor(long used, long capacity);
