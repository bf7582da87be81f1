"""Hot numerical kernels: frame placement, tree Newton-Euler, kinetic energy.

Plain Python, one scalar operation at a time. tree_newton_euler is the
general sweep (rates, accelerations, gravity, platform load); inverse
dynamics runs it. Direct dynamics runs tree_direct_efforts, one sweep on
plain floats that places each body once and carries four special cases
of it together, bit for bit the general sweep's efforts: the sweep at
zero acceleration with no load (the velocity and gravity efforts) and the
sweep at rest for each of the three unit accelerations (the columns of
the joint-space inertia). chain_kinetic, the velocity recursion for the
kinetic energy, also runs on plain floats. model.py packs each chain once
into the two tables these functions read:

  frames:  a tuple of nine rows, one per frame in tree order (frames
           1..9), each (parent, kind, cos gamma, sin gamma, cos alpha,
           sin alpha, b, d, theta, r). parent is the row of the parent
           frame, -1 for the world; kind is REVOLUTE, PRISMATIC or FIXED.
           The 7-body dynamic tree is the first seven rows.
  inertia: (7, 13) float64, one row per tree body: mass, first moment (3),
           inertia tensor row major (9), all about the body frame.

q, qd and qdd are per-frame joint values aligned with the rows (model.py's
closure maps build them); fixed frames carry 0.0. A frame's placement in
its parent is the 12-tuple from place: the rotation row major, then the
origin.
"""

import math

import numpy as np

_JIT = False  # the kernels are never compiled; environment stamps read this

REVOLUTE, PRISMATIC, FIXED = 0, 1, 2
_PLATFORM_ROW = 5  # frame 6, where the platform load acts


def place(row, qj):
    """Placement of one frame in its parent at joint value qj.

    Returns a 12-tuple: the rotation row major, then the origin. A fixed
    frame ignores qj.
    """
    _, kind, cg, sg, ca, sa, b, d, theta, r = row
    if kind == PRISMATIC:
        r = r + qj
    elif kind == REVOLUTE:
        theta = theta + qj
    ct = math.cos(theta)
    st = math.sin(theta)
    sgca = sg * ca
    cgca = cg * ca
    return (
        cg * ct - sgca * st, -cg * st - sgca * ct, sg * sa,
        sg * ct + cgca * st, -sg * st + cgca * ct, -cg * sa,
        sa * st, sa * ct, ca,
        d * cg + r * sg * sa, d * sg - r * cg * sa, b + r * ca,
    )


def _rot_mul(A, B):
    """A @ B for row-major rotations; B may carry an origin after its rotation."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = A
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = B[:9]
    return (
        a00 * b00 + a01 * b10 + a02 * b20,
        a00 * b01 + a01 * b11 + a02 * b21,
        a00 * b02 + a01 * b12 + a02 * b22,
        a10 * b00 + a11 * b10 + a12 * b20,
        a10 * b01 + a11 * b11 + a12 * b21,
        a10 * b02 + a11 * b12 + a12 * b22,
        a20 * b00 + a21 * b10 + a22 * b20,
        a20 * b01 + a21 * b11 + a22 * b21,
        a20 * b02 + a21 * b12 + a22 * b22,
    )


def chain_frames(frames, q):
    """World rotations and origins of the first len(q) frames, as two lists."""
    R = []
    O = []
    for row, qj in zip(frames, q):
        L = place(row, qj)
        p = row[0]
        if p < 0:
            R.append(L[:9])
            O.append(L[9:])
        else:
            Rp = R[p]
            ox, oy, oz = O[p]
            px, py, pz = L[9:]
            R.append(_rot_mul(Rp, L))
            O.append((
                ox + Rp[0] * px + Rp[1] * py + Rp[2] * pz,
                oy + Rp[3] * px + Rp[4] * py + Rp[5] * pz,
                oz + Rp[6] * px + Rp[7] * py + Rp[8] * pz,
            ))
    return R, O


def tree_newton_euler(frames, inertia, q, qd, qdd, g, fext):
    """Recursive Newton-Euler sweep over one chain tree (one row per body).

    Gravity is folded into the base acceleration (a_root = -g). fext is the
    force the chain applies to the platform, expressed in the world frame;
    its reaction acts at the origin of frame 6. Returns the efforts of the
    jointed frames in row order: frames 1..5, then frame 7.
    """
    n = len(inertia)
    Rl = [None] * n
    R0 = np.zeros((n, 9))
    w = np.zeros((n, 3))
    wd = np.zeros((n, 3))
    a = np.zeros((n, 3))

    for j in range(n):
        row = frames[j]
        p = row[0]
        kind = row[1]
        L = place(row, q[j])
        r00, r01, r02, r10, r11, r12, r20, r21, r22, px, py, pz = L
        Rl[j] = L
        if p < 0:
            wix = wiy = wiz = 0.0
            wdix = wdiy = wdiz = 0.0
            aix = -g[0]
            aiy = -g[1]
            aiz = -g[2]
            R0[j] = L[:9]
        else:
            wix, wiy, wiz = w[p]
            wdix, wdiy, wdiz = wd[p]
            aix, aiy, aiz = a[p]
            R0[j] = _rot_mul(R0[p], L)

        # parent-frame intermediates
        # c = wi x pl
        cx = wiy * pz - wiz * py
        cy = wiz * px - wix * pz
        cz = wix * py - wiy * px
        # u = wi x c
        ux = wiy * cz - wiz * cy
        uy = wiz * cx - wix * cz
        uz = wix * cy - wiy * cx
        # e = wdi x pl
        ex = wdiy * pz - wdiz * py
        ey = wdiz * px - wdix * pz
        ez = wdix * py - wdiy * px
        sax = aix + ex + ux
        say = aiy + ey + uy
        saz = aiz + ez + uz

        # rotate into the child frame with Rl^T
        wjx = r00 * wix + r10 * wiy + r20 * wiz
        wjy = r01 * wix + r11 * wiy + r21 * wiz
        wjz = r02 * wix + r12 * wiy + r22 * wiz
        wdjx = r00 * wdix + r10 * wdiy + r20 * wdiz
        wdjy = r01 * wdix + r11 * wdiy + r21 * wdiz
        wdjz = r02 * wdix + r12 * wdiy + r22 * wdiz
        ajx = r00 * sax + r10 * say + r20 * saz
        ajy = r01 * sax + r11 * say + r21 * saz
        ajz = r02 * sax + r12 * say + r22 * saz

        if kind == REVOLUTE:
            # revolute about local z
            qdj = qd[j]
            wdjx += wjy * qdj
            wdjy += -wjx * qdj
            wdjz += qdd[j]
            wjz += qdj
        elif kind == PRISMATIC:
            # prismatic along local z
            qdj = qd[j]
            ajx += 2.0 * wjy * qdj
            ajy += -2.0 * wjx * qdj
            ajz += qdd[j]

        w[j] = (wjx, wjy, wjz)
        wd[j] = (wdjx, wdjy, wdjz)
        a[j] = (ajx, ajy, ajz)

    f = np.zeros((n, 3))
    nn = np.zeros((n, 3))
    for j in range(n - 1, -1, -1):
        M, msx, msy, msz, J00, J01, J02, J10, J11, J12, J20, J21, J22 = inertia[j]
        wx, wy, wz = w[j]
        wdx, wdy, wdz = wd[j]
        ax, ay, az = a[j]

        # F = M a + wd x ms + w x (w x ms)
        t1x = wdy * msz - wdz * msy
        t1y = wdz * msx - wdx * msz
        t1z = wdx * msy - wdy * msx
        t2x = wy * msz - wz * msy
        t2y = wz * msx - wx * msz
        t2z = wx * msy - wy * msx
        t3x = wy * t2z - wz * t2y
        t3y = wz * t2x - wx * t2z
        t3z = wx * t2y - wy * t2x
        Fx = M * ax + t1x + t3x
        Fy = M * ay + t1y + t3y
        Fz = M * az + t1z + t3z

        # N = J wd + w x (J w) + ms x a
        Jwx = J00 * wx + J01 * wy + J02 * wz
        Jwy = J10 * wx + J11 * wy + J12 * wz
        Jwz = J20 * wx + J21 * wy + J22 * wz
        Jwdx = J00 * wdx + J01 * wdy + J02 * wdz
        Jwdy = J10 * wdx + J11 * wdy + J12 * wdz
        Jwdz = J20 * wdx + J21 * wdy + J22 * wdz
        Nx = Jwdx + wy * Jwz - wz * Jwy + msy * az - msz * ay
        Ny = Jwdy + wz * Jwx - wx * Jwz + msz * ax - msx * az
        Nz = Jwdz + wx * Jwy - wy * Jwx + msx * ay - msy * ax

        fj = f[j]
        nj = nn[j]
        fj[0] += Fx
        fj[1] += Fy
        fj[2] += Fz
        nj[0] += Nx
        nj[1] += Ny
        nj[2] += Nz

        if j == _PLATFORM_ROW:
            # reaction of the platform force, applied at the frame-6 origin
            R = R0[j]
            fj[0] += R[0] * fext[0] + R[3] * fext[1] + R[6] * fext[2]
            fj[1] += R[1] * fext[0] + R[4] * fext[1] + R[7] * fext[2]
            fj[2] += R[2] * fext[0] + R[5] * fext[1] + R[8] * fext[2]

        p = frames[j][0]
        if p >= 0:
            L = Rl[j]
            fx, fy, fz = fj
            nx, ny, nz = nj
            ffx = L[0] * fx + L[1] * fy + L[2] * fz
            ffy = L[3] * fx + L[4] * fy + L[5] * fz
            ffz = L[6] * fx + L[7] * fy + L[8] * fz
            nnx = L[0] * nx + L[1] * ny + L[2] * nz
            nny = L[3] * nx + L[4] * ny + L[5] * nz
            nnz = L[6] * nx + L[7] * ny + L[8] * nz
            fpar = f[p]
            npar = nn[p]
            fpar[0] += ffx
            fpar[1] += ffy
            fpar[2] += ffz
            npar[0] += nnx + L[10] * ffz - L[11] * ffy
            npar[1] += nny + L[11] * ffx - L[9] * ffz
            npar[2] += nnz + L[9] * ffy - L[10] * ffx

    gam = []
    for j in range(n):
        kind = frames[j][1]
        if kind == REVOLUTE:
            gam.append(nn[j][2])
        elif kind == PRISMATIC:
            gam.append(f[j][2])
    return gam


def tree_direct_efforts(frames, inertia, q, qd, g, units):
    """The efforts direct dynamics needs, from one sweep over one chain tree.

    Each body is placed once and its inertia row read once for four lanes:
    the bias lane, tree_newton_euler at zero joint accelerations with no
    load (velocity and gravity efforts), and one rest lane per vector in
    units, tree_newton_euler at that acceleration with zero rates, gravity
    and load (a column of the joint-space inertia). Returns (bias efforts,
    [rest-lane efforts]), laid out as tree_newton_euler's. Row 0 must be
    the root and a slider, as model.py wires every chain.

    Each lane keeps tree_newton_euler's expressions and order on floats and
    leaves out only terms that are exact signed zeros: what zero rates,
    accelerations, gravity or load enter, and the root's moments and
    sideways force, which no effort reads. In a rest lane None marks a body
    whose angular or whole acceleration is zero, as no joint up to it moves
    (the slider's column has no angular terms at all). A left-out term can
    change only the sign of a zero, and no effort is -0.0 in either sweep
    (each is a sum begun at +0.0), so the efforts agree bit for bit.
    """
    n = len(inertia)
    rows = inertia.tolist()
    bodies = [(row[0], row[1], place(row, qj)) for row, qj in zip(frames[:n], q)]
    gx, gy, gz = map(float, g)
    w, wd, a = [], [], []
    lanes = [([None] * n, [None] * n, u) for u in units]
    for j in range(n):
        p, kind, (r00, r01, r02, r10, r11, r12, r20, r21, r22, px, py, pz) = bodies[j]
        if p <= 0:
            # the root and its children, whose parent's rates are zero
            wjx = wjy = wjz = 0.0
            wdjx = wdjy = wdjz = 0.0
            sax, say, saz = a[0] if p == 0 else (-gx, -gy, -gz)
        else:
            wix, wiy, wiz = w[p]
            wdix, wdiy, wdiz = wd[p]
            aix, aiy, aiz = a[p]
            # c = wi x pl
            cx = wiy * pz - wiz * py
            cy = wiz * px - wix * pz
            cz = wix * py - wiy * px
            # u = wi x c, e = wdi x pl
            sax = aix + (wdiy * pz - wdiz * py) + (wiy * cz - wiz * cy)
            say = aiy + (wdiz * px - wdix * pz) + (wiz * cx - wix * cz)
            saz = aiz + (wdix * py - wdiy * px) + (wix * cy - wiy * cx)
            wjx = r00 * wix + r10 * wiy + r20 * wiz
            wjy = r01 * wix + r11 * wiy + r21 * wiz
            wjz = r02 * wix + r12 * wiy + r22 * wiz
            wdjx = r00 * wdix + r10 * wdiy + r20 * wdiz
            wdjy = r01 * wdix + r11 * wdiy + r21 * wdiz
            wdjz = r02 * wdix + r12 * wdiy + r22 * wdiz
        ajx = r00 * sax + r10 * say + r20 * saz
        ajy = r01 * sax + r11 * say + r21 * saz
        ajz = r02 * sax + r12 * say + r22 * saz
        if kind == REVOLUTE:
            qdj = qd[j]
            wdjx += wjy * qdj
            wdjy += -wjx * qdj
            wjz += qdj
        elif kind == PRISMATIC:
            qdj = qd[j]
            ajx += 2.0 * wjy * qdj
            ajy += -2.0 * wjx * qdj
        w.append((wjx, wjy, wjz))
        wd.append((wdjx, wdjy, wdjz))
        a.append((ajx, ajy, ajz))

        for lwd, la, u in lanes:
            wdj = sax = None
            if p >= 0:
                wdi = lwd[p]
                ai = la[p]
                if wdi is not None:
                    wdix, wdiy, wdiz = wdi
                    wdj = (
                        r00 * wdix + r10 * wdiy + r20 * wdiz,
                        r01 * wdix + r11 * wdiy + r21 * wdiz,
                        r02 * wdix + r12 * wdiy + r22 * wdiz,
                    )
                    # e = wdi x pl
                    sax = wdiy * pz - wdiz * py
                    say = wdiz * px - wdix * pz
                    saz = wdix * py - wdiy * px
                    if ai is not None:
                        sax = ai[0] + sax
                        say = ai[1] + say
                        saz = ai[2] + saz
                elif ai is not None:
                    sax, say, saz = ai
            aj = None if sax is None else (
                r00 * sax + r10 * say + r20 * saz,
                r01 * sax + r11 * say + r21 * saz,
                r02 * sax + r12 * say + r22 * saz,
            )
            uj = u[j]
            if uj:
                if kind == REVOLUTE:
                    wdj = (0.0, 0.0, uj) if wdj is None else (wdj[0], wdj[1], wdj[2] + uj)
                    if aj is None:
                        aj = (0.0, 0.0, 0.0)
                elif kind == PRISMATIC:
                    aj = (0.0, 0.0, uj) if aj is None else (aj[0], aj[1], aj[2] + uj)
            lwd[j] = wdj
            la[j] = aj

    # the force and moment sums: the bias lane's, then each rest lane's
    fx, fy, fz, nx, ny, nz = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    sums = [(lwd, la, [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n) for lwd, la, _ in lanes]
    for j in range(n - 1, 0, -1):
        M, msx, msy, msz, J00, J01, J02, J10, J11, J12, J20, J21, J22 = rows[j]
        p, _, (r00, r01, r02, r10, r11, r12, r20, r21, r22, px, py, pz) = bodies[j]
        wx, wy, wz = w[j]
        wdx, wdy, wdz = wd[j]
        ax, ay, az = a[j]
        # F = M a + wd x ms + w x (w x ms)
        t2x = wy * msz - wz * msy
        t2y = wz * msx - wx * msz
        t2z = wx * msy - wy * msx
        fjx = fx[j] + (M * ax + (wdy * msz - wdz * msy) + (wy * t2z - wz * t2y))
        fjy = fy[j] + (M * ay + (wdz * msx - wdx * msz) + (wz * t2x - wx * t2z))
        fjz = fz[j] = fz[j] + (M * az + (wdx * msy - wdy * msx) + (wx * t2y - wy * t2x))
        # N = J wd + w x (J w) + ms x a
        Jwx = J00 * wx + J01 * wy + J02 * wz
        Jwy = J10 * wx + J11 * wy + J12 * wz
        Jwz = J20 * wx + J21 * wy + J22 * wz
        njx = nx[j] + (J00 * wdx + J01 * wdy + J02 * wdz + wy * Jwz - wz * Jwy + msy * az - msz * ay)
        njy = ny[j] + (J10 * wdx + J11 * wdy + J12 * wdz + wz * Jwx - wx * Jwz + msz * ax - msx * az)
        njz = nz[j] = nz[j] + (J20 * wdx + J21 * wdy + J22 * wdz + wx * Jwy - wy * Jwx + msx * ay - msy * ax)
        # into the parent's frame; the root takes only the force along its axis
        ffz = r20 * fjx + r21 * fjy + r22 * fjz
        fz[p] += ffz
        if p:
            ffx = r00 * fjx + r01 * fjy + r02 * fjz
            ffy = r10 * fjx + r11 * fjy + r12 * fjz
            fx[p] += ffx
            fy[p] += ffy
            nx[p] += r00 * njx + r01 * njy + r02 * njz + py * ffz - pz * ffy
            ny[p] += r10 * njx + r11 * njy + r12 * njz + pz * ffx - px * ffz
            nz[p] += r20 * njx + r21 * njy + r22 * njz + px * ffy - py * ffx

        for lwd, la, lfx, lfy, lfz, lnx, lny, lnz in sums:
            fjx = lfx[j]
            fjy = lfy[j]
            fjz = lfz[j]
            njx = lnx[j]
            njy = lny[j]
            njz = lnz[j]
            aj = la[j]
            if aj is not None:
                ax, ay, az = aj
                wdj = lwd[j]
                if wdj is None:
                    # F = M a, N = ms x a
                    fjx += M * ax
                    fjy += M * ay
                    fjz = lfz[j] = fjz + M * az
                    njx += msy * az - msz * ay
                    njy += msz * ax - msx * az
                    njz = lnz[j] = njz + (msx * ay - msy * ax)
                else:
                    # F = M a + wd x ms, N = J wd + ms x a
                    wdx, wdy, wdz = wdj
                    fjx += M * ax + (wdy * msz - wdz * msy)
                    fjy += M * ay + (wdz * msx - wdx * msz)
                    fjz = lfz[j] = fjz + (M * az + (wdx * msy - wdy * msx))
                    njx += J00 * wdx + J01 * wdy + J02 * wdz + msy * az - msz * ay
                    njy += J10 * wdx + J11 * wdy + J12 * wdz + msz * ax - msx * az
                    njz = lnz[j] = njz + (J20 * wdx + J21 * wdy + J22 * wdz + msx * ay - msy * ax)
            ffz = r20 * fjx + r21 * fjy + r22 * fjz
            lfz[p] += ffz
            if p:
                ffx = r00 * fjx + r01 * fjy + r02 * fjz
                ffy = r10 * fjx + r11 * fjy + r12 * fjz
                lfx[p] += ffx
                lfy[p] += ffy
                lnx[p] += r00 * njx + r01 * njy + r02 * njz + py * ffz - pz * ffy
                lny[p] += r10 * njx + r11 * njy + r12 * njz + pz * ffx - px * ffz
                lnz[p] += r20 * njx + r21 * njy + r22 * njz + px * ffy - py * ffx

    # the root's rates are zero in every lane: its effort is F = M a along the slider
    M = rows[0][0]
    fz[0] += M * a[0][2]
    for _, la, _, _, lfz, _, _, _ in sums:
        if la[0] is not None:
            lfz[0] += M * la[0][2]
    jointed = [(j, kind == REVOLUTE) for j, (_, kind, _) in enumerate(bodies) if kind != FIXED]
    return (
        [nz[j] if revolute else fz[j] for j, revolute in jointed],
        [[lnz[j] if revolute else lfz[j] for j, revolute in jointed] for _, _, _, _, lfz, _, _, lnz in sums],
    )


def chain_kinetic(frames, inertia, q, qd):
    """Kinetic energy of one chain tree via the velocity recursion.

    Every quantity is a Python float and the inertia is read once. The root
    body's parent rates are zero, so its rotated rates are left out; that
    can flip only the sign of a zero, and no nonzero value or the energy (a
    sum begun at +0.0) depends on such a sign.
    """
    w = []
    v = []
    T = 0.0
    for row, qj, qdj, body in zip(frames, q, qd, inertia.tolist()):
        p = row[0]
        kind = row[1]
        if p < 0:
            wjx = wjy = wjz = 0.0
            vjx = vjy = vjz = 0.0
        else:
            r00, r01, r02, r10, r11, r12, r20, r21, r22, px, py, pz = place(row, qj)
            wix, wiy, wiz = w[p]
            vpx, vpy, vpz = v[p]
            svx = vpx + wiy * pz - wiz * py
            svy = vpy + wiz * px - wix * pz
            svz = vpz + wix * py - wiy * px
            wjx = r00 * wix + r10 * wiy + r20 * wiz
            wjy = r01 * wix + r11 * wiy + r21 * wiz
            wjz = r02 * wix + r12 * wiy + r22 * wiz
            vjx = r00 * svx + r10 * svy + r20 * svz
            vjy = r01 * svx + r11 * svy + r21 * svz
            vjz = r02 * svx + r12 * svy + r22 * svz
        if kind == REVOLUTE:
            wjz += qdj
        elif kind == PRISMATIC:
            vjz += qdj
        w.append((wjx, wjy, wjz))
        v.append((vjx, vjy, vjz))

        M, msx, msy, msz, J00, J01, J02, J10, J11, J12, J20, J21, J22 = body
        Jwx = J00 * wjx + J01 * wjy + J02 * wjz
        Jwy = J10 * wjx + J11 * wjy + J12 * wjz
        Jwz = J20 * wjx + J21 * wjy + J22 * wjz
        # v x w
        vwx = vjy * wjz - vjz * wjy
        vwy = vjz * wjx - vjx * wjz
        vwz = vjx * wjy - vjy * wjx
        T += 0.5 * M * (vjx * vjx + vjy * vjy + vjz * vjz)
        T += 0.5 * (wjx * Jwx + wjy * Jwy + wjz * Jwz)
        T += msx * vwx + msy * vwy + msz * vwz
    return T
